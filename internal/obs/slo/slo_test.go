package slo

import (
	"encoding/json"
	"strings"
	"testing"

	"itmap/internal/obs"
	"itmap/internal/obs/history"
)

func near(got, want float64) bool { return got > want-1e-9 && got < want+1e-9 }

// regAt builds a registry whose counters reflect "total requests served so
// far = total, of which bad failed" — the monotonic shape Record samples.
func regAt(bad, total uint64) *obs.Registry {
	r := obs.NewRegistry()
	req := obs.NewCounter("itm_req_total", "req.", "class")
	req.In(r, "5xx").Add(bad)
	req.In(r, "2xx").Add(total - bad)
	return r
}

func availObjective(windows ...int) Objective {
	return Objective{
		Name:    "availability",
		Bad:     []Metric{{Family: "itm_req_total", Match: `class="5xx"`}},
		Total:   []Metric{{Family: "itm_req_total"}},
		Target:  0.99,
		Windows: windows,
	}
}

func TestEvaluateBurnMath(t *testing.T) {
	ring := history.NewRing(8)
	// Sample trail: after epoch 1 (0 bad / 100 total), after epoch 2
	// (1 bad / 200 total). Now: 3 bad / 300 total.
	ring.Record("epoch", "e1", 24, regAt(0, 100))
	ring.Record("epoch", "e2", 48, regAt(1, 200))
	e := &Engine{Ring: ring, Reg: regAt(3, 300), Objectives: []Objective{availObjective(1, 0)}}
	rep := e.Evaluate()
	if rep.Generation != 2 || len(rep.Objectives) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	o := rep.Objectives[0]
	if len(o.Windows) != 2 {
		t.Fatalf("windows = %+v", o.Windows)
	}
	// Window of 1 sample: delta vs e2 = 2 bad / 100 total → error rate
	// 0.02, burn = 0.02 / (1-0.99) = 2.
	w1 := o.Windows[0]
	if w1.Bad != 2 || w1.Total != 100 || !near(w1.BurnRate, 2) {
		t.Fatalf("w1 = %+v, want bad 2 total 100 burn ≈2", w1)
	}
	if w1.SLI != 0.98 {
		t.Fatalf("w1.SLI = %v", w1.SLI)
	}
	// Lifetime window: 3 bad / 300 total → error rate 0.01, burn 1.
	w0 := o.Windows[1]
	if w0.Bad != 3 || w0.Total != 300 || !near(w0.BurnRate, 1) {
		t.Fatalf("w0 = %+v, want bad 3 total 300 burn ≈1", w0)
	}
	// Max burn ≈2 ∈ (BurnWarn, BurnCritical): at_risk, and AllMet clears.
	if !near(o.MaxBurnRate, 2) || o.Status != StatusAtRisk || rep.AllMet {
		t.Fatalf("objective = %+v allMet=%v", o, rep.AllMet)
	}
}

func TestStatusThresholds(t *testing.T) {
	cases := []struct {
		name   string
		bad    uint64
		status string
		allMet bool
	}{
		// burn = (bad/1000) / 0.01; thresholds compare in floats, so the
		// boundary cases sit clearly on one side.
		{"met at sustainable burn", 10, StatusMet, true},      // burn ≈1.0
		{"at risk past warn", 20, StatusAtRisk, false},        // burn ≈2
		{"violated past critical", 70, StatusViolated, false}, // burn ≈7
	}
	for _, tc := range cases {
		e := &Engine{Ring: history.NewRing(4), Reg: regAt(tc.bad, 1000),
			Objectives: []Objective{availObjective(0)}}
		rep := e.Evaluate()
		if got := rep.Objectives[0].Status; got != tc.status {
			t.Errorf("%s: status = %q, want %q", tc.name, got, tc.status)
		}
		if rep.AllMet != tc.allMet {
			t.Errorf("%s: allMet = %v, want %v", tc.name, rep.AllMet, tc.allMet)
		}
	}
}

func TestNoDataStatus(t *testing.T) {
	e := &Engine{Ring: history.NewRing(4), Reg: obs.NewRegistry(),
		Objectives: []Objective{availObjective(1, 0)}}
	rep := e.Evaluate()
	o := rep.Objectives[0]
	if o.Status != StatusNoData || o.MaxBurnRate != 0 {
		t.Fatalf("objective = %+v, want no_data", o)
	}
	// no_data is absence, not failure: it must not clear AllMet.
	if !rep.AllMet {
		t.Fatal("no_data must not clear AllMet")
	}
	for _, w := range o.Windows {
		if w.SLI != 1 || w.BurnRate != 0 {
			t.Fatalf("empty window = %+v, want SLI 1 burn 0", w)
		}
	}
}

// A window wider than the ring clamps to "since process start" instead of
// failing or reading garbage.
func TestWindowClampsToRing(t *testing.T) {
	ring := history.NewRing(8)
	ring.Record("epoch", "e1", 24, regAt(0, 100))
	e := &Engine{Ring: ring, Reg: regAt(1, 200), Objectives: []Objective{availObjective(50)}}
	w := e.Evaluate().Objectives[0].Windows[0]
	if w.Samples != 1 {
		t.Fatalf("samples = %d, want clamp to ring length 1", w.Samples)
	}
	if w.Bad != 1 || w.Total != 200 {
		t.Fatalf("clamped window = %+v, want lifetime totals", w)
	}
}

func TestMetricSelectors(t *testing.T) {
	vals := []history.KV{
		{Key: `itm_req_total{class="2xx",route="a"}`, Value: 5},
		{Key: `itm_req_total{class="5xx",route="a"}`, Value: 3},
		{Key: `itm_req_total{class="5xx",route="b"}`, Value: 2},
		{Key: "itm_other_total", Value: 100},
	}
	if got := sumMetrics([]Metric{{Family: "itm_req_total"}}, vals); got != 10 {
		t.Fatalf("family sum = %v, want 10", got)
	}
	if got := sumMetrics([]Metric{{Family: "itm_req_total", Match: `class="5xx"`}}, vals); got != 5 {
		t.Fatalf("match sum = %v, want 5", got)
	}
	if got := sumMetrics([]Metric{{Family: "itm_req_total", Match: `class="5xx"`, Exclude: `route="b"`}}, vals); got != 3 {
		t.Fatalf("exclude sum = %v, want 3", got)
	}
	// Family match is exact on the name, not a substring of the key.
	if got := sumMetrics([]Metric{{Family: "itm_req"}}, vals); got != 0 {
		t.Fatalf("prefix family must not match, got %v", got)
	}
}

func TestTargetOneEdge(t *testing.T) {
	o := availObjective(0)
	o.Target = 1 // zero error budget: any bad event is an instant violation
	e := &Engine{Ring: history.NewRing(4), Reg: regAt(1, 1000), Objectives: []Objective{o}}
	if got := e.Evaluate().Objectives[0].Status; got != StatusViolated {
		t.Fatalf("status = %q, want violated on zero budget", got)
	}
	e = &Engine{Ring: history.NewRing(4), Reg: regAt(0, 1000), Objectives: []Objective{o}}
	if got := e.Evaluate().Objectives[0].Status; got != StatusMet {
		t.Fatalf("status = %q, want met with zero bad", got)
	}
}

func TestMarshalJSONBodyDeterministic(t *testing.T) {
	build := func() []byte {
		ring := history.NewRing(8)
		ring.Record("epoch", "e1", 24, regAt(1, 100))
		e := &Engine{Ring: ring, Reg: regAt(2, 200), Objectives: []Objective{availObjective(1, 0)}}
		b, err := e.Evaluate().MarshalJSONBody()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b1, b2 := build(), build()
	if string(b1) != string(b2) {
		t.Fatal("report bodies differ across identical runs")
	}
	if b1[len(b1)-1] != '\n' {
		t.Fatal("body must end with a newline")
	}
	var rep Report
	if err := json.Unmarshal(b1, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Objectives) != 1 || rep.Objectives[0].Name != "availability" {
		t.Fatalf("round-trip = %+v", rep)
	}
}

// The default objective set must only reference families the serving stack
// actually declares — guarded here by name so a rename cannot silently
// disconnect an objective.
func TestServingObjectivesShape(t *testing.T) {
	objs := ServingObjectives()
	if len(objs) != 4 {
		t.Fatalf("objectives = %d, want 4", len(objs))
	}
	wantNames := []string{"availability", "latency_p99_proxy", "cache_hit_rate", "mesh_path_completeness"}
	for i, o := range objs {
		if o.Name != wantNames[i] {
			t.Fatalf("objective %d = %q, want %q", i, o.Name, wantNames[i])
		}
		if o.Target <= 0 || o.Target > 1 {
			t.Fatalf("%s: target %v out of range", o.Name, o.Target)
		}
		if len(o.Windows) == 0 || o.Windows[len(o.Windows)-1] != 0 {
			t.Fatalf("%s: windows %v must end with the lifetime window", o.Name, o.Windows)
		}
		for _, m := range append(append([]Metric{}, o.Bad...), o.Total...) {
			if !strings.HasPrefix(m.Family, "itm_") {
				t.Fatalf("%s selects non-itm family %q", o.Name, m.Family)
			}
		}
	}
}
