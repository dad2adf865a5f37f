package spans

import (
	"testing"
	"time"
)

// fakeClock advances only when told to.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	c := &fakeClock{}
	r := NewRecorder(c.now, "w")
	root := r.Start("root") // 0..100
	c.t = 10 * time.Microsecond
	a := r.Start("a") // 10..40
	c.t = 20 * time.Microsecond
	leaf := r.Start("leaf") // 20..25
	c.t = 25 * time.Microsecond
	r.End(leaf)
	c.t = 40 * time.Microsecond
	r.End(a)
	c.t = 60 * time.Microsecond
	b := r.Start("b") // 60..90
	c.t = 90 * time.Microsecond
	r.End(b)
	c.t = 100 * time.Microsecond
	r.End(root)

	got := r.Spans()
	want := map[string][3]float64{ // parent, length, self
		"root": {-1, 100, 40},
		"a":    {0, 30, 25},
		"leaf": {1, 5, 5},
		"b":    {0, 30, 30},
	}
	for _, s := range got {
		w := want[s.Name]
		if float64(s.Parent) != w[0] || s.EndUS-s.StartUS != w[1] || s.SelfUS != w[2] {
			t.Errorf("%s: parent %d length %v self %v, want %v", s.Name, s.Parent, s.EndUS-s.StartUS, s.SelfUS, w)
		}
		if s.Workload != "w" {
			t.Errorf("%s: workload %q", s.Name, s.Workload)
		}
	}
	if ms := r.ChildrenMS(root); ms != 0.06 {
		t.Errorf("ChildrenMS(root) = %v, want 0.06", ms)
	}
	if ms := r.TotalMS(root, "leaf"); ms != 0.005 {
		t.Errorf("TotalMS(root, leaf) = %v, want 0.005 (any depth)", ms)
	}
}

// Children that ran in parallel overlap; the covered time counts once, and a
// child that outlives its parent covers only the part inside it.
func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, StartUS: 0, EndUS: 100},
		{ID: 1, Parent: 0, StartUS: 10, EndUS: 50},
		{ID: 2, Parent: 0, StartUS: 30, EndUS: 70},
		{ID: 3, Parent: 0, StartUS: 90, EndUS: 120},
	}
	SetSelfTimes(spans)
	if spans[0].SelfUS != 30 { // covered: 10..70 and 90..100
		t.Errorf("self = %v, want 30", spans[0].SelfUS)
	}
}

func TestEndOutOfOrderPanics(t *testing.T) {
	r := NewRecorder((&fakeClock{}).now, "")
	outer := r.Start("outer")
	r.Start("inner")
	defer func() {
		if recover() == nil {
			t.Error("End(outer) with inner open did not panic")
		}
	}()
	r.End(outer)
}
