package main

import (
	"context"
	"os"
	"testing"
)

// TestSmokeAllWorkloads builds itm-serve and runs every workload end to end
// on the smallest world, the last one traced. It boots real processes, so
// -short skips it.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real itm-serve processes")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil { // the driver runs from the repo root
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for i, w := range workloads {
		cfg := config{workload: w.name, seed: 1, seconds: 3, trace: i == len(workloads)-1,
			shape: shape{scale: "tiny", epochs: 2, recoverEpochs: 4, meshAgents: 8}}
		res, err := benchmark(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct %v, %d of %d failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
		want := endToEnd
		if cfg.trace {
			want = perLayer()
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
				t.Errorf("%s: metric %s missing or in unit %q, want %q", w.name, m.name, v.Unit, m.unit)
			}
		}
		if !cfg.trace {
			for name, v := range res.Metrics {
				if !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, v.Value)
				}
			}
		}
	}
}
