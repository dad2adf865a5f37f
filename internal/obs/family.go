package obs

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// A metric family is declared once, as a package-level value built by
// NewCounter, NewGauge or NewHistogram: its name, help string, kind, label
// keys, histogram bounds and volatility are written there and nowhere else.
// The value is inert until its first use, which resolves it against the
// current default registry (so Swap keeps working) and caches that
// resolution for as long as the registry stays current. Nothing registers at
// package init: a family nobody declares and nobody touches is absent from
// the exposition, header included.
//
// Label keys are given in ascending order, and a labelled form (With, In)
// takes the label values in that same order.
type decl struct {
	name, help string
	kind       Kind
	labelKeys  []string
	bounds     []float64 // histograms only
	volatile   bool      // excluded from the stable exposition
	atZero     bool      // Declare creates the unlabelled series at 0

	bound atomic.Pointer[binding]
}

// binding is a family value resolved against one registry.
type binding struct {
	reg *Registry
	f   *family
}

func newDecl(kind Kind, name, help string, bounds []float64, labelKeys []string) decl {
	if !sort.StringsAreSorted(labelKeys) {
		panic(fmt.Sprintf("obs: %s label keys %v are not ascending", name, labelKeys))
	}
	return decl{name: name, help: help, kind: kind, labelKeys: labelKeys, bounds: bounds}
}

// in resolves the family in r, registering its header on first use there.
func (d *decl) in(r *Registry) *family {
	if b := d.bound.Load(); b != nil && b.reg == r {
		return b.f
	}
	f := r.family(d)
	d.bound.Store(&binding{reg: r, f: f})
	return f
}

func (d *decl) declare(r *Registry) {
	f := d.in(r)
	if d.atZero {
		f.get(nil)
	}
}

// Family is any declared metric family value.
type Family interface{ declare(r *Registry) }

// Declare registers the families' HELP/TYPE headers in the default registry
// without creating a series, so the schema is exposed before (or without)
// any increment — except a family marked DeclaredAtZero, whose one series
// starts at 0. Call it where the owning component is constructed, not at
// package init: a process that never builds the component never lists it.
func Declare(fams ...Family) {
	r := Metrics()
	for _, f := range fams {
		f.declare(r)
	}
}

// CounterFamily is a declared counter family.
type CounterFamily struct{ decl }

// NewCounter declares a counter family.
func NewCounter(name, help string, labelKeys ...string) *CounterFamily {
	return &CounterFamily{newDecl(KindCounter, name, help, nil, labelKeys)}
}

// Volatile marks the family run-to-run unstable (e.g. sync.Pool reuse
// counts): it is excluded from StableExposition.
func (c *CounterFamily) Volatile() *CounterFamily {
	c.volatile = true
	return c
}

// DeclaredAtZero makes Declare create the family's (unlabelled) series at
// 0, so a stable dump carries its value and not only its header.
func (c *CounterFamily) DeclaredAtZero() *CounterFamily {
	c.atZero = true
	return c
}

// Inc adds one to the unlabelled series.
func (c *CounterFamily) Inc() { c.In(Metrics()).Inc() }

// Add adds n to the unlabelled series.
func (c *CounterFamily) Add(n uint64) { c.In(Metrics()).Add(n) }

// With returns the default registry's series for the label values.
func (c *CounterFamily) With(values ...string) *Counter { return c.In(Metrics(), values...) }

// In returns r's series for the label values — for components handed a
// registry rather than reporting into the default one.
func (c *CounterFamily) In(r *Registry, values ...string) *Counter {
	return c.in(r).get(values).c
}

// GaugeFamily is a declared, unlabelled gauge family.
type GaugeFamily struct{ decl }

// NewGauge declares a gauge family.
func NewGauge(name, help string) *GaugeFamily {
	return &GaugeFamily{newDecl(KindGauge, name, help, nil, nil)}
}

// Set stores v.
func (g *GaugeFamily) Set(v float64) { g.in(Metrics()).get(nil).g.Set(v) }

// HistogramFamily is a declared histogram family. bounds must be ascending.
type HistogramFamily struct{ decl }

// NewHistogram declares a histogram family.
func NewHistogram(name, help string, bounds []float64, labelKeys ...string) *HistogramFamily {
	return &HistogramFamily{newDecl(KindHistogram, name, help, bounds, labelKeys)}
}

// Volatile marks a wall-clock-fed family (the HTTP request-duration
// bridge): it is excluded from StableExposition.
func (h *HistogramFamily) Volatile() *HistogramFamily {
	h.volatile = true
	return h
}

// Observe records v in the unlabelled series.
func (h *HistogramFamily) Observe(v float64) { h.With().Observe(v) }

// With returns the default registry's series for the label values.
func (h *HistogramFamily) With(values ...string) *Histogram {
	return h.in(Metrics()).get(values).h
}
