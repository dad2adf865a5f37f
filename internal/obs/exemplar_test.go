package obs

import (
	"strconv"
	"strings"
	"testing"
)

// Exemplar selection is a commutative min-fold on (traceID, value): any
// arrival order of the same observation set yields the same winner, so
// concurrent workers cannot perturb the exposition.
func TestExemplarMinFoldOrderIndependent(t *testing.T) {
	obsv := []struct {
		v  float64
		id string
	}{
		{5, "cccc"}, {7, "aaaa"}, {3, "bbbb"}, {7, "aaaa"},
	}
	orders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}}
	var first exemplar
	for k, order := range orders {
		h := histIn(NewRegistry(), NewHistogram("h", "h.", []float64{10}))
		for _, i := range order {
			h.ObserveExemplar(obsv[i].v, obsv[i].id)
		}
		ex, ok := h.exemplarAt(0)
		if !ok {
			t.Fatal("bucket 0 should hold an exemplar")
		}
		if k == 0 {
			first = ex
			// Min by (traceID, value): "aaaa" beats later IDs, 7 is the
			// only value "aaaa" observed.
			if ex.traceID != "aaaa" || ex.value != 7 {
				t.Fatalf("winner = %+v, want {aaaa 7}", ex)
			}
			continue
		}
		if ex != first {
			t.Fatalf("order %v changed the exemplar: %+v vs %+v", order, ex, first)
		}
	}
}

func TestExemplarTiesBreakOnValue(t *testing.T) {
	h := histIn(NewRegistry(), NewHistogram("h", "h.", []float64{10}))
	h.ObserveExemplar(9, "same")
	h.ObserveExemplar(2, "same")
	ex, _ := h.exemplarAt(0)
	if ex.value != 2 {
		t.Fatalf("equal trace IDs should keep the smaller value, got %v", ex.value)
	}
}

func TestExemplarBucketPlacement(t *testing.T) {
	h := histIn(NewRegistry(), NewHistogram("h", "h.", []float64{1, 2}))
	h.ObserveExemplar(1, "edge")  // le="1" is inclusive: bucket 0, not 1
	h.ObserveExemplar(99, "huge") // +Inf bucket (index len(bounds))
	if ex, ok := h.exemplarAt(0); !ok || ex.traceID != "edge" {
		t.Fatalf("boundary observation should land in the inclusive bucket, got %+v ok=%v", ex, ok)
	}
	if _, ok := h.exemplarAt(1); ok {
		t.Fatal("bucket 1 saw no observation, must hold no exemplar")
	}
	if ex, ok := h.exemplarAt(2); !ok || ex.traceID != "huge" {
		t.Fatalf("+Inf bucket exemplar = %+v ok=%v", ex, ok)
	}
}

func TestExemplarEmptyTraceIDIgnored(t *testing.T) {
	h := histIn(NewRegistry(), NewHistogram("h", "h.", []float64{1}))
	h.ObserveExemplar(0.5, "")
	if h.Count() != 1 {
		t.Fatal("observation must still count")
	}
	if _, ok := h.exemplarAt(0); ok {
		t.Fatal("empty trace ID must not become an exemplar")
	}
}

func TestExpositionRendersExemplars(t *testing.T) {
	r := NewRegistry()
	h := histIn(r, NewHistogram("itm_rt_bytes", "Response bytes.", []float64{10, 100}))
	h.ObserveExemplar(4, "0af7651916cd43dd8448eb211c80319c")
	h.ObserveExemplar(5000, "b7ad6b7169203331")
	h.Observe(50) // plain observation: middle bucket counts, no exemplar
	text := r.StableExposition()
	for _, line := range []string{
		`itm_rt_bytes_bucket{le="10"} 1 # {trace_id="0af7651916cd43dd8448eb211c80319c"} 4`,
		`itm_rt_bytes_bucket{le="100"} 2`,
		`itm_rt_bytes_bucket{le="+Inf"} 3 # {trace_id="b7ad6b7169203331"} 5000`,
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, text)
		}
	}
	if strings.Contains(text, `le="100"} 2 #`) {
		t.Errorf("exemplar leaked onto an unobserved bucket:\n%s", text)
	}
}

// Zero-observation families: a histogram declared via Declare
// exposes HELP/TYPE only (like declared counters — the shape contract
// without phantom series); one instantiated but never observed exposes its
// full zero bucket ladder. Neither carries exemplar suffixes.
func TestZeroObservationHistogramExposition(t *testing.T) {
	r := NewRegistry()
	NewHistogram("itm_idle_bytes", "Declared, never observed.", []float64{1, 2}).declare(r)
	histIn(r, NewHistogram("itm_quiet_bytes", "Instantiated, never observed.", []float64{1, 2}))
	text := r.StableExposition()
	for _, line := range []string{
		"# HELP itm_idle_bytes Declared, never observed.",
		"# TYPE itm_idle_bytes histogram",
		"# TYPE itm_quiet_bytes histogram",
		`itm_quiet_bytes_bucket{le="1"} 0`,
		`itm_quiet_bytes_bucket{le="+Inf"} 0`,
		"itm_quiet_bytes_sum 0",
		"itm_quiet_bytes_count 0",
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, text)
		}
	}
	if strings.Contains(text, "itm_idle_bytes_bucket") {
		t.Errorf("declared-only histogram must expose no series:\n%s", text)
	}
	if strings.Contains(text, "trace_id") {
		t.Errorf("zero-observation histograms must carry no exemplars:\n%s", text)
	}
}

// Over-cap span drops must be visible in metrics: serial drops produce an
// exact deterministic count in itm_trace_dropped_total.
func TestTraceCapDropCounter(t *testing.T) {
	prev := Swap(NewSet())
	defer Swap(prev)
	tc := NewTracer()
	tc.cap = 3
	tr := tc.Trace("capped")
	for i := 0; i < 10; i++ {
		tr.Start("s", 0).SetOrder(i).SetAttrInt("i", int64(i))
	}
	out := tr.Export()
	if out.Spans != 3 || out.Dropped != 7 {
		t.Fatalf("spans=%d dropped=%d, want 3/7", out.Spans, out.Dropped)
	}
	got := traceDropped.With("capped").Value()
	if got != 7 {
		t.Fatalf("itm_trace_dropped_total = %d, want 7", got)
	}
	// The surviving prefix is the first cap arrivals, in order.
	for i, root := range out.Roots {
		if want := strconv.Itoa(i); root.Attrs["i"] != want {
			t.Fatalf("root %d carries i=%q: tail drop must keep the first arrivals", i, root.Attrs["i"])
		}
	}
}
