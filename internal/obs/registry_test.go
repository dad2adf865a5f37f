package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExpositionGolden locks the Prometheus text-format rendering: HELP/TYPE
// ordering, family sorting, series sorting, label escaping, histogram
// cumulative buckets. Regenerate with:
//
//	UPDATE_GOLDEN=1 go test ./internal/obs -run Golden
//
// fullExposition is the Prometheus text dump with the volatile families
// included: what /metrics serves.
func fullExposition(r *Registry) string {
	var b strings.Builder
	_ = r.WritePrometheus(&b, true)
	return b.String()
}

// histIn resolves an unlabelled histogram family in r: tests report into a
// registry of their own rather than the default one.
func histIn(r *Registry, h *HistogramFamily) *Histogram { return h.in(r).get(nil).h }

func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	NewCounter("itm_zeta_total", "Sorted last by name.").In(r).Add(3)
	NewCounter("itm_alpha_total", `Help with backslash \ and
newline.`).In(r).Inc()
	requests := NewCounter("itm_requests_total", "Requests by route and class.", "class", "route")
	requests.In(r, "2xx", "GET /v1/top").Add(7)
	requests.In(r, "5xx", "GET /v1/top").Inc()
	NewCounter("itm_escapes_total", "Label-value escaping.", "v").
		In(r, "quote\" backslash\\ newline\n").Inc()
	NewGauge("itm_level", "A gauge.").in(r).get(nil).g.Set(-2.5)
	h := histIn(r, NewHistogram("itm_sizes_bytes", "A histogram.", []float64{1, 10, 100}))
	for _, v := range []float64{0.5, 5, 5, 50, 5000} {
		h.Observe(v)
	}
	hx := histIn(r, NewHistogram("itm_traced_bytes", "A histogram with exemplars.", []float64{16, 256}))
	hx.ObserveExemplar(12, "0af7651916cd43dd8448eb211c80319c")
	hx.ObserveExemplar(1024, "b7ad6b7169203331")
	hx.Observe(64) // no exemplar on the middle bucket
	NewCounter("itm_declared_total", "Declared but never incremented.", "kind").declare(r)
	NewHistogram("itm_declared_bytes", "Declared histogram, never observed.", []float64{1, 2}).declare(r)
	NewCounter("itm_volatile_total", "Excluded from the stable dump.").Volatile().In(r).Add(99)

	got := r.StableExposition()
	golden := filepath.Join("testdata", "exposition.golden")
	if update() {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (set UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("stable exposition drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	full := fullExposition(r)
	if !strings.Contains(full, "itm_volatile_total 99") {
		t.Errorf("full exposition should include volatile families:\n%s", full)
	}
	if strings.Contains(got, "itm_volatile_total") {
		t.Errorf("stable exposition must exclude volatile families:\n%s", got)
	}
}

func update() bool { return os.Getenv("UPDATE_GOLDEN") != "" }

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := histIn(r, NewHistogram("h", "h.", []float64{1, 2}))
	h.Observe(0.5)
	h.Observe(1) // le="1" is inclusive
	h.Observe(1.5)
	h.Observe(3) // +Inf bucket
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 6.0; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	text := fullExposition(r)
	for _, line := range []string{
		`h_bucket{le="1"} 2`,
		`h_bucket{le="2"} 3`,
		`h_bucket{le="+Inf"} 4`,
		`h_sum 6`,
		`h_count 4`,
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, text)
		}
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	NewCounter("x", "x.").In(r)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	NewGauge("x", "x.").in(r)
}

func TestVisitIsSortedAndStable(t *testing.T) {
	r := NewRegistry()
	b := NewCounter("b_total", "b.", "k")
	b.In(r, "2").Add(2)
	b.In(r, "1").Add(1)
	NewCounter("a_total", "a.").In(r).Add(5)
	NewCounter("v_total", "v.").Volatile().In(r).Inc()
	var keys []string
	r.Visit(func(name string, labels []Label, v float64) {
		k := name
		for _, l := range labels {
			k += "{" + l.Key + "=" + l.Value + "}"
		}
		keys = append(keys, k)
	})
	want := []string{"a_total", "b_total{k=1}", "b_total{k=2}"}
	if len(keys) != len(want) {
		t.Fatalf("visited %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("visited %v, want %v", keys, want)
		}
	}
}
