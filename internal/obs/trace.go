package obs

import (
	"encoding/json"
	"sort"
	"strings"
	"sync"

	"itmap/internal/simtime"
)

// Tracer records spans grouped into named traces — one trace per campaign
// (epoch day), so a multi-epoch serve run exposes each day's span tree
// under /v1/trace/{campaign}. Spans carry virtual-clock timestamps; wall
// time never enters a trace, so exports are byte-identical across runs of
// the same seeded campaign.
type Tracer struct {
	mu sync.Mutex
	//itm:guardedby mu
	traces map[string]*Trace
	//itm:guardedby mu
	active *Trace
	cap    int
}

// DefaultTraceCap bounds how many spans one trace retains. Spans past the
// cap are counted as dropped instead of evicting earlier spans: eviction
// order under concurrent arrival would be scheduler-dependent, and a
// deterministic tail beats a nondeterministic window.
const DefaultTraceCap = 16384

// NewTracer returns a tracer whose traces hold up to DefaultTraceCap spans.
func NewTracer() *Tracer {
	return &Tracer{traces: map[string]*Trace{}, cap: DefaultTraceCap}
}

// Trace returns (creating if needed) the named trace.
func (t *Tracer) Trace(name string) *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.traces[name]
	if tr == nil {
		tr = &Trace{name: name, cap: t.cap}
		t.traces[name] = tr
	}
	return tr
}

// Activate makes the named trace the destination for spans started via the
// package-level StartSpan, and returns it. Campaign drivers call this at
// stage boundaries (serial points), so span attribution is deterministic.
func (t *Tracer) Activate(name string) *Trace {
	tr := t.Trace(name)
	t.mu.Lock()
	t.active = tr
	t.mu.Unlock()
	return tr
}

// Active returns the currently active trace (the trace named "default"
// until Activate is called).
func (t *Tracer) Active() *Trace {
	t.mu.Lock()
	tr := t.active
	t.mu.Unlock()
	if tr == nil {
		return t.Trace("default")
	}
	return tr
}

// Lookup returns the named trace without creating it.
func (t *Tracer) Lookup(name string) (*Trace, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.traces[name]
	return tr, ok
}

// Names returns the existing trace names, sorted.
func (t *Tracer) Names() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.traces))
	for n := range t.traces {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Trace is one campaign's span collection.
type Trace struct {
	name string
	cap  int

	mu sync.Mutex
	//itm:guardedby mu
	spans []*Span
	//itm:guardedby mu
	dropped int
}

// Start opens a root span at simulated time at.
func (tr *Trace) Start(name string, at simtime.Time) *Span {
	return tr.add(&Span{tr: tr, name: name, start: at, end: at})
}

func (tr *Trace) add(sp *Span) *Span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) >= tr.cap {
		tr.dropped++
		sp.dropped = true
		// Tail drop: arrivals past the cap are rejected in order, never
		// evicting retained spans, so under serial recording the surviving
		// prefix is deterministic. The counter lands in the default
		// registry — sets are swapped as (registry, tracer) pairs.
		traceDropped.With(tr.name).Inc()
		return sp
	}
	tr.spans = append(tr.spans, sp)
	return sp
}

// Attr is one span attribute. Attributes keep the order they were set in
// (program order, hence deterministic).
type Attr struct {
	Key   string
	Value string
}

// Span is one unit of pipeline work: a name, virtual start/end times, an
// order hint for deterministic sibling sorting, and attributes. A span is
// mutated only by the goroutine that started it, then frozen by End.
type Span struct {
	tr      *Trace
	parent  *Span
	name    string
	start   simtime.Time
	end     simtime.Time
	order   int
	attrs   []Attr
	dropped bool
}

// Child opens a span nested under sp at simulated time at.
func (sp *Span) Child(name string, at simtime.Time) *Span {
	return sp.tr.add(&Span{tr: sp.tr, parent: sp, name: name, start: at, end: at})
}

// SetOrder sets the deterministic sibling sort hint (e.g. the shard index);
// siblings sort by (start, order, name, attrs).
func (sp *Span) SetOrder(n int) *Span {
	sp.order = n
	return sp
}

// SetAttr attaches a string attribute.
func (sp *Span) SetAttr(key, value string) *Span {
	sp.attrs = append(sp.attrs, Attr{Key: key, Value: value})
	return sp
}

// SetAttrInt attaches an integer attribute.
func (sp *Span) SetAttrInt(key string, v int64) *Span {
	return sp.SetAttr(key, itoa(v))
}

// End closes the span at simulated time at.
func (sp *Span) End(at simtime.Time) { sp.end = at }

func itoa(v int64) string {
	var b [20]byte
	n := len(b)
	neg := v < 0
	if neg {
		v = -v
	}
	for {
		n--
		b[n] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	if neg {
		n--
		b[n] = '-'
	}
	return string(b[n:])
}

// SpanJSON is one exported span node.
type SpanJSON struct {
	ID       int               `json:"id"`
	Name     string            `json:"name"`
	StartH   float64           `json:"start_h"`
	EndH     float64           `json:"end_h"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*SpanJSON       `json:"children,omitempty"`
}

// TraceJSON is one exported trace: the span forest plus bookkeeping.
type TraceJSON struct {
	Name    string      `json:"name"`
	Spans   int         `json:"spans"`
	Dropped int         `json:"dropped"`
	Roots   []*SpanJSON `json:"roots"`
}

// Export snapshots the trace as a sorted tree. Sibling spans sort by
// (start, order, name, attribute signature) and IDs are assigned in
// depth-first order over the sorted tree, so the export is independent of
// the goroutine interleaving that recorded the spans.
func (tr *Trace) Export() *TraceJSON {
	tr.mu.Lock()
	spans := make([]*Span, len(tr.spans))
	copy(spans, tr.spans)
	dropped := tr.dropped
	tr.mu.Unlock()

	children := make(map[*Span][]*Span, len(spans))
	var roots []*Span
	for _, sp := range spans {
		if sp.parent == nil || sp.parent.dropped {
			roots = append(roots, sp)
		} else {
			children[sp.parent] = append(children[sp.parent], sp)
		}
	}
	out := &TraceJSON{Name: tr.name, Spans: len(spans), Dropped: dropped, Roots: []*SpanJSON{}}
	nextID := 0
	var build func(list []*Span) []*SpanJSON
	build = func(list []*Span) []*SpanJSON {
		sortSpans(list)
		nodes := make([]*SpanJSON, 0, len(list))
		for _, sp := range list {
			node := &SpanJSON{ID: nextID, Name: sp.name,
				StartH: float64(sp.start), EndH: float64(sp.end)}
			nextID++
			if len(sp.attrs) > 0 {
				node.Attrs = make(map[string]string, len(sp.attrs))
				for _, a := range sp.attrs {
					node.Attrs[a.Key] = a.Value
				}
			}
			if kids := children[sp]; len(kids) > 0 {
				node.Children = build(kids)
			}
			nodes = append(nodes, node)
		}
		return nodes
	}
	out.Roots = build(roots)
	return out
}

// ExportJSON returns the indented JSON encoding of Export.
func (tr *Trace) ExportJSON() ([]byte, error) {
	return json.MarshalIndent(tr.Export(), "", "  ")
}

func sortSpans(list []*Span) {
	sort.SliceStable(list, func(i, j int) bool {
		a, b := list[i], list[j]
		if a.start != b.start {
			return a.start < b.start
		}
		if a.order != b.order {
			return a.order < b.order
		}
		if a.name != b.name {
			return a.name < b.name
		}
		return attrSig(a.attrs) < attrSig(b.attrs)
	})
}

func attrSig(attrs []Attr) string {
	var b strings.Builder
	for _, a := range attrs {
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(a.Value)
		b.WriteByte('\xff')
	}
	return b.String()
}

// ExportAll renders every trace in the tracer, sorted by name — the
// -trace-out file format.
func (t *Tracer) ExportAll() ([]byte, error) {
	names := t.Names()
	out := make([]*TraceJSON, 0, len(names))
	for _, n := range names {
		tr, _ := t.Lookup(n)
		out = append(out, tr.Export())
	}
	return json.MarshalIndent(struct {
		Traces []*TraceJSON `json:"traces"`
	}{Traces: out}, "", "  ")
}
