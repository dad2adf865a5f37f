// Package obs is the toolkit's stdlib-only observability layer: a metrics
// registry (atomic counters, gauges, fixed-bucket histograms with labeled
// families and deterministically sorted Prometheus exposition), span tracing
// over simulated time with a compact JSON export, and a structured leveled
// event log replacing ad-hoc prints.
//
// The layer inherits the repo's determinism contract (DESIGN.md §8): with a
// fixed seed and a fixed worker count, the stable metrics dump and the trace
// export are byte-identical across runs. Three rules make that hold:
//
//   - counter deltas and histogram bucket increments are integer atomic
//     adds, which commute, so per-probe increments from parallel shards
//     total identically regardless of scheduling;
//   - histogram sums accumulate in fixed-point nanounits (integer adds)
//     instead of racing float adds, so summation order cannot leak;
//   - the few genuinely wall-clock or scheduler-dependent families (HTTP
//     request durations, sync.Pool reuse counts) are registered as
//     *volatile* and excluded from the stable exposition golden tests and
//     file dumps use; /metrics serves everything.
//
// Spans carry virtual-clock timestamps and are sorted structurally at
// export, so goroutine interleaving never reaches the exported bytes.
package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type.
type Kind uint8

// Metric family kinds, matching the Prometheus TYPE keywords.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is one key=value pair attached to a metric series.
type Label struct{ Key, Value string }

// Counter is a monotonically increasing uint64. Safe for concurrent use;
// concurrent adds commute, so totals are deterministic.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if n != 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable float64.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// sumScale is the fixed-point denominator histogram sums accumulate in.
// Integer adds commute, so the sum — unlike a float fold — is independent
// of observation order and worker scheduling.
const sumScale = 1e9

// Histogram is a fixed-bucket histogram. Buckets are cumulative upper
// bounds; observations beyond the last bound land in the implicit +Inf
// bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64    // fixed-point, sumScale units
	n      atomic.Uint64

	emu sync.Mutex
	//itm:guardedby emu
	exemplars []exemplar // lazily len(bounds)+1; empty traceID = unset
}

// exemplar links one bucket to a trace that landed in it. The kept exemplar
// is the minimum by (traceID, value), a commutative fold, so concurrent
// observation order never reaches the exposition.
type exemplar struct {
	traceID string
	value   float64
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(int64(math.Round(v * sumScale)))
	h.n.Add(1)
}

// ObserveExemplar records v and, when traceID is non-empty, offers it as
// the bucket's exemplar. Exemplar selection keeps the smallest
// (traceID, value) pair seen, so the winning exemplar depends only on the
// set of observations, not their arrival order.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.emu.Lock()
	if h.exemplars == nil {
		h.exemplars = make([]exemplar, len(h.bounds)+1)
	}
	e := &h.exemplars[i]
	if e.traceID == "" || traceID < e.traceID || (traceID == e.traceID && v < e.value) {
		*e = exemplar{traceID: traceID, value: v}
	}
	h.emu.Unlock()
}

// exemplarAt returns bucket i's exemplar, if one was recorded.
func (h *Histogram) exemplarAt(i int) (exemplar, bool) {
	h.emu.Lock()
	defer h.emu.Unlock()
	if h.exemplars == nil || i >= len(h.exemplars) || h.exemplars[i].traceID == "" {
		return exemplar{}, false
	}
	return h.exemplars[i], true
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the (fixed-point accumulated) sum of observations.
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) / sumScale }

// family is one named metric family: a kind, a help string, a fixed label
// key set, and the series instantiated so far.
type family struct {
	name      string
	help      string
	kind      Kind
	labelKeys []string
	volatile  bool
	bounds    []float64 // histograms only

	mu sync.Mutex
	//itm:guardedby mu
	series map[string]*series // by label-value signature
	bare   atomic.Pointer[series]
}

type series struct {
	labelValues []string // aligned with family.labelKeys
	c           *Counter
	g           *Gauge
	h           *Histogram
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu sync.RWMutex
	//itm:guardedby mu
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// family returns d's family in r, creating it with d's shape on first use.
// Shape mismatches (kind or label keys) against a family of the same name
// panic: they are programming errors, like registering two Prometheus
// collectors under one name.
func (r *Registry) family(d *decl) *family {
	r.mu.RLock()
	f := r.families[d.name]
	r.mu.RUnlock()
	if f == nil {
		f = &family{name: d.name, help: d.help, kind: d.kind, labelKeys: d.labelKeys,
			volatile: d.volatile, bounds: d.bounds, series: map[string]*series{}}
		r.mu.Lock()
		if prior := r.families[d.name]; prior != nil {
			f = prior
		} else {
			r.families[d.name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != d.kind {
		panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", d.name, d.kind, f.kind))
	}
	if !slices.Equal(f.labelKeys, d.labelKeys) {
		panic(fmt.Sprintf("obs: %s re-registered with labels %v (was %v)", d.name, d.labelKeys, f.labelKeys))
	}
	return f
}

// get returns the series for the label values (in labelKeys order),
// creating it on first use. A hit on values that fit the 64-byte signature
// buffer allocates nothing.
func (f *family) get(vals []string) *series {
	if len(vals) != len(f.labelKeys) {
		panic(fmt.Sprintf("obs: %s wants labels %v, got %d values", f.name, f.labelKeys, len(vals)))
	}
	if len(vals) == 0 {
		if s := f.bare.Load(); s != nil {
			return s
		}
	}
	var buf [64]byte
	sig := buf[:0]
	for i, v := range vals {
		if i > 0 {
			sig = append(sig, 0xff)
		}
		sig = append(sig, v...)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[string(sig)]
	if s == nil {
		s = f.newSeries(slices.Clone(vals))
		f.series[string(sig)] = s
		if len(vals) == 0 {
			f.bare.Store(s)
		}
	}
	return s
}

func (f *family) newSeries(vals []string) *series {
	s := &series{labelValues: vals}
	switch f.kind {
	case KindCounter:
		s.c = &Counter{}
	case KindGauge:
		s.g = &Gauge{}
	case KindHistogram:
		s.h = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
	}
	return s
}

// WritePrometheus writes the registry in Prometheus text exposition format
// 0.0.4: families sorted by name, series sorted by label values, label
// values escaped per the spec. includeVolatile selects whether wall-clock
// and scheduler-dependent families are emitted.
func (r *Registry) WritePrometheus(w io.Writer, includeVolatile bool) error {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		if f.volatile && !includeVolatile {
			continue
		}
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// StableExposition returns the deterministic subset of the dump: with a
// fixed seed and worker count it is byte-identical across runs, so it can
// be diffed, golden-tested, and committed.
func (r *Registry) StableExposition() string {
	var b strings.Builder
	_ = r.WritePrometheus(&b, false)
	return b.String()
}

// Visit calls fn for every series of every non-volatile family, in
// deterministic order, with the series reduced to a single value (counter
// count, gauge value, histogram observation count). Used by itm-bench to
// distill campaign counters.
func (r *Registry) Visit(fn func(name string, labels []Label, value float64)) {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if f.volatile {
			continue
		}
		for _, s := range f.sortedSeries() {
			labels := make([]Label, len(f.labelKeys))
			for i, k := range f.labelKeys {
				labels[i] = Label{Key: k, Value: s.labelValues[i]}
			}
			var v float64
			switch f.kind {
			case KindCounter:
				v = float64(s.c.Value())
			case KindGauge:
				v = s.g.Value()
			case KindHistogram:
				v = float64(s.h.Count())
			}
			fn(f.name, labels, v)
		}
	}
}

func (f *family) sortedSeries() []*series {
	f.mu.Lock()
	ss := make([]*series, 0, len(f.series))
	sigs := make([]string, 0, len(f.series))
	for sig := range f.series {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		ss = append(ss, f.series[sig])
	}
	f.mu.Unlock()
	return ss
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, s := range f.sortedSeries() {
		switch f.kind {
		case KindCounter:
			b.WriteString(f.name)
			writeLabels(b, f.labelKeys, s.labelValues, "", 0)
			fmt.Fprintf(b, " %d\n", s.c.Value())
		case KindGauge:
			b.WriteString(f.name)
			writeLabels(b, f.labelKeys, s.labelValues, "", 0)
			b.WriteByte(' ')
			b.WriteString(formatFloat(s.g.Value()))
			b.WriteByte('\n')
		case KindHistogram:
			h := s.h
			cum := uint64(0)
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				b.WriteString(f.name)
				b.WriteString("_bucket")
				writeLabels(b, f.labelKeys, s.labelValues, "le", bound)
				fmt.Fprintf(b, " %d", cum)
				writeExemplar(b, h, i)
				b.WriteByte('\n')
			}
			b.WriteString(f.name)
			b.WriteString("_bucket")
			writeLabels(b, f.labelKeys, s.labelValues, "le", math.Inf(1))
			fmt.Fprintf(b, " %d", h.Count())
			writeExemplar(b, h, len(h.bounds))
			b.WriteByte('\n')
			fmt.Fprintf(b, "%s_sum", f.name)
			writeLabels(b, f.labelKeys, s.labelValues, "", 0)
			b.WriteByte(' ')
			b.WriteString(formatFloat(h.Sum()))
			b.WriteByte('\n')
			fmt.Fprintf(b, "%s_count", f.name)
			writeLabels(b, f.labelKeys, s.labelValues, "", 0)
			fmt.Fprintf(b, " %d\n", h.Count())
		}
	}
}

// writeExemplar appends an OpenMetrics-style exemplar suffix
// (` # {trace_id="..."} <value>`) when bucket i has one.
func writeExemplar(b *strings.Builder, h *Histogram, i int) {
	ex, ok := h.exemplarAt(i)
	if !ok {
		return
	}
	b.WriteString(` # {trace_id="`)
	b.WriteString(escapeLabel(ex.traceID))
	b.WriteString(`"} `)
	b.WriteString(formatFloat(ex.value))
}

// writeLabels emits {k="v",...}; leKey non-empty appends the histogram
// bucket bound as a trailing le label.
func writeLabels(b *strings.Builder, keys, vals []string, leKey string, le float64) {
	if len(keys) == 0 && leKey == "" {
		return
	}
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if leKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leKey)
		b.WriteString(`="`)
		if math.IsInf(le, 1) {
			b.WriteString("+Inf")
		} else {
			b.WriteString(formatFloat(le))
		}
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// formatFloat renders a float the way the text format expects: shortest
// round-trip representation, deterministic for a given bit pattern.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP string per the 0.0.4 text format: backslash
// and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double quote, newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
