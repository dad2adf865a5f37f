// Package schedule plans measurement campaigns under real-world operational
// constraints. The paper's techniques all face rate limits — public
// resolvers throttle per-source queries, routers rate-limit ICMP — and a
// campaign is only as good as its ability to cover the target set within
// the temporal precision Table 1 asks for. The planner answers: with this
// probing budget, how long does a sweep take, does it fit in the refresh
// window, and if not, what has to give (probers, domains, or coverage)?
package schedule

import (
	"fmt"
	"math"
)

// Campaign describes a sweep to plan.
type Campaign struct {
	// Targets is the number of (prefix, domain) probe pairs per round.
	Targets int
	// Rounds is how many times per window each pair is probed.
	Rounds int
	// QPSPerProber is the per-source query budget the measured service
	// tolerates (public resolvers throttle single sources hard).
	QPSPerProber float64
	// Probers is the number of distinct vantage sources available.
	Probers int
	// WindowHours is the refresh window the sweep must fit in (Table 1's
	// temporal precision: 24 for daily, 1 for hourly).
	WindowHours float64
	// LossRate is the expected transient-failure probability per probe
	// (timeouts, SERVFAILs, throttles). A lossy substrate forces retries,
	// inflating the probe budget; zero means the pre-fault planner.
	LossRate float64
	// RetryBudget is the maximum attempts per target including the first
	// (default 1: no retries, lost probes stay lost).
	RetryBudget int
}

// Plan is the planner's verdict.
type Plan struct {
	TotalProbes int
	SweepHours  float64
	Feasible    bool
	// InflationFactor is the expected attempts per logical probe once
	// retries against the loss rate are accounted for (1 with no loss).
	InflationFactor float64
	// EffectiveProbes is TotalProbes scaled by the inflation factor — the
	// datagram count the rate limiter actually sees.
	EffectiveProbes int
	// UtilizedQPS is the aggregate probing rate used.
	UtilizedQPS float64
	// MaxTargetsInWindow is the largest target count that would fit.
	MaxTargetsInWindow int
	// ProbersNeeded is the minimum prober count that makes the campaign
	// feasible at the same QPS budget.
	ProbersNeeded int
}

// Validate reports configuration errors.
func (c Campaign) Validate() error {
	switch {
	case c.Targets <= 0:
		return fmt.Errorf("schedule: targets must be positive, got %d", c.Targets)
	case c.Rounds <= 0:
		return fmt.Errorf("schedule: rounds must be positive, got %d", c.Rounds)
	case c.QPSPerProber <= 0:
		return fmt.Errorf("schedule: per-prober QPS must be positive, got %f", c.QPSPerProber)
	case c.Probers <= 0:
		return fmt.Errorf("schedule: probers must be positive, got %d", c.Probers)
	case c.WindowHours <= 0:
		return fmt.Errorf("schedule: window must be positive, got %f", c.WindowHours)
	case c.LossRate < 0 || c.LossRate >= 1:
		return fmt.Errorf("schedule: loss rate must be in [0,1), got %f", c.LossRate)
	case c.RetryBudget < 0:
		return fmt.Errorf("schedule: retry budget must be non-negative, got %d", c.RetryBudget)
	default:
		return nil
	}
}

// Inflation returns the expected attempts per logical probe: with
// per-attempt loss p and a budget of B attempts, a prober stops at the
// first success, so E[attempts] = Σ_{k=0}^{B−1} p^k = (1−p^B)/(1−p).
// Zero loss (or a budget of 1) yields exactly 1 — the pre-fault planner.
func (c Campaign) Inflation() float64 {
	b := c.RetryBudget
	if b < 1 {
		b = 1
	}
	if c.LossRate <= 0 || b == 1 {
		return 1
	}
	return (1 - math.Pow(c.LossRate, float64(b))) / (1 - c.LossRate)
}

// Fit plans the campaign.
//
//itmlint:allow deadexport the package's entry point, which only the package's own tests call now that Interleave is gone: the planner leaves whole, with its seven tests, in a later PR
func (c Campaign) Fit() (Plan, error) {
	if err := c.Validate(); err != nil {
		return Plan{}, err
	}
	var p Plan
	p.TotalProbes = c.Targets * c.Rounds
	p.InflationFactor = c.Inflation()
	eff := float64(p.TotalProbes) * p.InflationFactor
	p.EffectiveProbes = int(math.Ceil(eff))
	p.UtilizedQPS = c.QPSPerProber * float64(c.Probers)
	p.SweepHours = eff / p.UtilizedQPS / 3600
	p.Feasible = p.SweepHours <= c.WindowHours
	p.MaxTargetsInWindow = int(c.WindowHours * 3600 * p.UtilizedQPS / (float64(c.Rounds) * p.InflationFactor))
	p.ProbersNeeded = int(math.Ceil(eff / (c.WindowHours * 3600 * c.QPSPerProber)))
	return p, nil
}
