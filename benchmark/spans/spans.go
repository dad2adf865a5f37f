// Package spans records the traced run's spans in memory and writes them out
// when the run ends. A span is one call into a layer: name, start, end, the
// span that caused it, and the workload the run was traced for. A layer's
// self time is its span minus the part of it its child spans cover.
package spans

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one recorded call. Parent is the ID of the span that was open
// when this one started, or -1 for a root.
type Span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
	SelfUS   float64 `json:"self_us"`
}

// Recorder collects spans from one goroutine: Start and End nest like the
// calls they bracket, so the open spans form a stack.
type Recorder struct {
	now      func() time.Duration
	workload string
	spans    []Span
	open     []int
}

// NewRecorder returns a recorder stamping spans with now and workload.
func NewRecorder(now func() time.Duration, workload string) *Recorder {
	return &Recorder{now: now, workload: workload}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Start opens a span under the innermost open one and returns its ID.
func (r *Recorder) Start(name string) int {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Workload: r.workload, StartUS: us(r.now())})
	r.open = append(r.open, id)
	return id
}

// End closes the innermost open span, which must be id.
func (r *Recorder) End(id int) {
	end := us(r.now())
	if len(r.open) == 0 || r.open[len(r.open)-1] != id {
		panic("spans: End out of order") // a bug in the tracer, never input
	}
	r.open = r.open[:len(r.open)-1]
	r.spans[id].EndUS = end
}

// Do brackets f with a span and returns the span's ID.
func (r *Recorder) Do(name string, f func()) int {
	id := r.Start(name)
	f()
	r.End(id)
	return id
}

// Len is the number of spans recorded so far.
func (r *Recorder) Len() int { return len(r.spans) }

// Spans returns the recorded spans with self times filled in.
func (r *Recorder) Spans() []Span {
	out := append([]Span(nil), r.spans...)
	SetSelfTimes(out)
	return out
}

// DurationMS is span id's length in milliseconds.
func (r *Recorder) DurationMS(id int) float64 {
	return (r.spans[id].EndUS - r.spans[id].StartUS) / 1000
}

// TotalMS sums the lengths of the spans called name that lie under root
// (any depth), in milliseconds.
func (r *Recorder) TotalMS(root int, name string) float64 {
	var sum float64
	for i := range r.spans {
		if r.spans[i].Name != name {
			continue
		}
		for p := r.spans[i].Parent; p >= 0; p = r.spans[p].Parent {
			if p == root {
				sum += r.DurationMS(i)
				break
			}
		}
	}
	return sum
}

// ChildrenMS sums the lengths of root's direct children, in milliseconds.
func (r *Recorder) ChildrenMS(root int) float64 {
	var sum float64
	for i := range r.spans {
		if r.spans[i].Parent == root {
			sum += r.DurationMS(i)
		}
	}
	return sum
}

// SetSelfTimes fills SelfUS: each span's length minus the union of the
// intervals its direct children cover inside it. Children may overlap one
// another (parallel parts); the union counts covered time once.
func SetSelfTimes(spans []Span) {
	children := make(map[int][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	for i := range spans {
		kids := children[spans[i].ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartUS < spans[kids[b]].StartUS })
		covered, edge := 0.0, spans[i].StartUS
		for _, k := range kids {
			start, end := spans[k].StartUS, spans[k].EndUS
			if start < edge {
				start = edge
			}
			if end > spans[i].EndUS {
				end = spans[i].EndUS
			}
			if end > start {
				covered += end - start
				edge = end
			}
		}
		spans[i].SelfUS = spans[i].EndUS - spans[i].StartUS - covered
	}
}

// WriteJSON writes the spans, self times included, to path.
func (r *Recorder) WriteJSON(path string) error {
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Spans    []Span `json:"spans"`
	}{r.workload, r.Spans()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
