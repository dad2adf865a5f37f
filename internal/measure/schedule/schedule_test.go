package schedule

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRealisticDailySweep(t *testing.T) {
	// The paper's scale: 8.8M /24s × 10 domains, 100 QPS per prober,
	// 20 probers, daily refresh.
	c := Campaign{
		Targets:      8_800_000 * 10,
		Rounds:       1,
		QPSPerProber: 100,
		Probers:      20,
		WindowHours:  24,
	}
	p, err := c.Fit()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible {
		t.Errorf("paper-scale daily sweep infeasible: %.1f h", p.SweepHours)
	}
	if p.SweepHours < 10 || p.SweepHours > 14 {
		t.Errorf("sweep hours %.1f, want ~12.2", p.SweepHours)
	}
}

func TestHourlyPrecisionNeedsMoreProbers(t *testing.T) {
	base := Campaign{
		Targets:      8_800_000,
		Rounds:       1,
		QPSPerProber: 100,
		Probers:      5,
		WindowHours:  1,
	}
	p, err := base.Fit()
	if err != nil {
		t.Fatal(err)
	}
	if p.Feasible {
		t.Fatal("hourly full sweep with 5 probers should not fit")
	}
	if p.ProbersNeeded <= base.Probers {
		t.Fatalf("ProbersNeeded %d not above current %d", p.ProbersNeeded, base.Probers)
	}
	// Using the suggested prober count makes it (just) feasible.
	base.Probers = p.ProbersNeeded
	p2, err := base.Fit()
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Feasible {
		t.Errorf("ProbersNeeded=%d still infeasible (%.2f h)", base.Probers, p2.SweepHours)
	}
}

func TestMaxTargetsConsistent(t *testing.T) {
	c := Campaign{Targets: 1000, Rounds: 4, QPSPerProber: 10, Probers: 2, WindowHours: 2}
	p, err := c.Fit()
	if err != nil {
		t.Fatal(err)
	}
	// A campaign at exactly MaxTargetsInWindow fits.
	c.Targets = p.MaxTargetsInWindow
	p2, err := c.Fit()
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Feasible {
		t.Errorf("MaxTargetsInWindow=%d does not fit (%.3f h window %.1f)",
			c.Targets, p2.SweepHours, c.WindowHours)
	}
	// One percent more does not.
	c.Targets = p.MaxTargetsInWindow + p.MaxTargetsInWindow/100 + 1
	p3, _ := c.Fit()
	if p3.Feasible {
		t.Error("exceeding MaxTargetsInWindow still feasible")
	}
}

func TestValidation(t *testing.T) {
	bad := []Campaign{
		{},
		{Targets: 1, Rounds: 0, QPSPerProber: 1, Probers: 1, WindowHours: 1},
		{Targets: 1, Rounds: 1, QPSPerProber: 0, Probers: 1, WindowHours: 1},
		{Targets: 1, Rounds: 1, QPSPerProber: 1, Probers: 0, WindowHours: 1},
		{Targets: 1, Rounds: 1, QPSPerProber: 1, Probers: 1},
	}
	for i, c := range bad {
		if _, err := c.Fit(); err == nil {
			t.Errorf("case %d: invalid campaign accepted", i)
		}
	}
}

func TestFitProperties(t *testing.T) {
	f := func(targets uint16, rounds, probers uint8, qps uint8, window uint8) bool {
		c := Campaign{
			Targets:      int(targets%5000) + 1,
			Rounds:       int(rounds%8) + 1,
			QPSPerProber: float64(qps%50) + 1,
			Probers:      int(probers%16) + 1,
			WindowHours:  float64(window%48) + 1,
		}
		p, err := c.Fit()
		if err != nil {
			return false
		}
		// Feasibility must agree with the sweep/window comparison, and
		// doubling probers never makes it slower.
		if p.Feasible != (p.SweepHours <= c.WindowHours) {
			return false
		}
		c2 := c
		c2.Probers *= 2
		p2, _ := c2.Fit()
		return p2.SweepHours <= p.SweepHours+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInflationFactor(t *testing.T) {
	cases := []struct {
		name   string
		loss   float64
		budget int
		want   float64
	}{
		{"no loss", 0, 5, 1},
		{"no retries", 0.3, 1, 1},
		{"zero budget means one attempt", 0.3, 0, 1},
		{"mild loss", 0.1, 3, 1 + 0.1 + 0.01},
		{"hostile loss", 0.3, 4, 1 + 0.3 + 0.09 + 0.027},
		{"deep budget approaches 1/(1-p)", 0.5, 30, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Campaign{
				Targets: 1000, Rounds: 2, QPSPerProber: 10, Probers: 2,
				WindowHours: 24, LossRate: tc.loss, RetryBudget: tc.budget,
			}
			if got := c.Inflation(); math.Abs(got-tc.want) > 1e-6 {
				t.Fatalf("Inflation() = %f, want %f", got, tc.want)
			}
			p, err := c.Fit()
			if err != nil {
				t.Fatal(err)
			}
			wantEff := int(math.Ceil(float64(p.TotalProbes) * tc.want))
			if p.EffectiveProbes != wantEff {
				t.Fatalf("EffectiveProbes = %d, want %d", p.EffectiveProbes, wantEff)
			}
			// The clean planner must be untouched by the zero value.
			if tc.loss == 0 || tc.budget <= 1 {
				clean := c
				clean.LossRate, clean.RetryBudget = 0, 0
				pc, err := clean.Fit()
				if err != nil {
					t.Fatal(err)
				}
				if p != pc {
					t.Fatalf("zero-loss plan diverged: %+v vs %+v", p, pc)
				}
			}
		})
	}
}

func TestInflationScalesFeasibility(t *testing.T) {
	// A campaign near its window edge tips infeasible once loss-driven
	// retries inflate the budget.
	c := Campaign{Targets: 160_000, Rounds: 1, QPSPerProber: 1, Probers: 2, WindowHours: 24}
	p, err := c.Fit()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible {
		t.Fatalf("clean campaign should fit (%.2f h)", p.SweepHours)
	}
	c.LossRate, c.RetryBudget = 0.3, 5
	p2, err := c.Fit()
	if err != nil {
		t.Fatal(err)
	}
	if p2.Feasible {
		t.Fatalf("inflated campaign should not fit (%.2f h, factor %.3f)", p2.SweepHours, p2.InflationFactor)
	}
	if p2.ProbersNeeded <= c.Probers {
		t.Fatalf("ProbersNeeded %d not above current %d", p2.ProbersNeeded, c.Probers)
	}
}
