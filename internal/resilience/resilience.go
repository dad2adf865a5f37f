// Package resilience gives the measurement clients the machinery real
// probers need against an unreliable substrate: capped exponential backoff
// with deterministic jitter, a bounded retry loop, a per-dependency circuit
// breaker, and a token-bucket pacer that keeps a source under its
// queries-per-second budget (Pacer's qps). Everything is parameterized by
// simulated time so campaigns stay reproducible; AsDuration and DoSleep
// bridge to wall-clock clients like cmd/itm-probe.
package resilience

import (
	"math"
	"time"

	"itmap/internal/randx"
	"itmap/internal/simtime"
)

// Backoff is a capped exponential backoff schedule with deterministic
// jitter: Delay(key, attempt) is a pure function, so two runs (or two worker
// layouts) retry at identical simulated times.
type Backoff struct {
	// Base is the delay before the first retry (default 1 simulated
	// second).
	Base simtime.Time
	// Factor multiplies the delay per attempt (default 2, min 1).
	Factor float64
	// Cap bounds the delay (0 = uncapped).
	Cap simtime.Time
	// Jitter spreads each delay uniformly over ±Jitter of itself.
	Jitter float64
	// Seed feeds the jitter hash.
	Seed uint64
}

// Delay returns the pause before retry number attempt (0-based) of the
// operation identified by key.
func (b Backoff) Delay(key uint64, attempt int) simtime.Time {
	base := b.Base
	if base <= 0 {
		base = simtime.Seconds(1)
	}
	f := b.Factor
	if f < 1 {
		f = 2
	}
	d := float64(base) * math.Pow(f, float64(attempt))
	if b.Cap > 0 && d > float64(b.Cap) {
		d = float64(b.Cap)
	}
	if b.Jitter > 0 {
		u := randx.HashFloat(b.Seed, 0xbac0ff, key, uint64(attempt))
		d *= 1 + b.Jitter*(2*u-1)
	}
	return simtime.Time(d)
}

// AsDuration converts a simulated delay to wall-clock time (1 simulated
// hour = 1 real hour; callers usually scale down first).
func AsDuration(d simtime.Time) time.Duration {
	return time.Duration(float64(d) * float64(time.Hour))
}

// Retryer bounds how hard a client fights a failing operation.
type Retryer struct {
	// Budget is the maximum total attempts, including the first
	// (default 1: no retries).
	Budget int
	// Backoff schedules the pauses between attempts.
	Backoff Backoff
	// Retryable classifies errors; nil retries everything.
	Retryable func(error) bool
}

// Outcome reports how a retried operation ended.
type Outcome struct {
	// Attempts is how many times op ran.
	Attempts int
	// End is the simulated time of the final attempt (start plus all
	// backoff waits).
	End simtime.Time
	// Err is nil on success, the last error when the budget was spent,
	// or the first non-retryable error.
	Err error
}

// Do runs op at start, retrying with backoff until success, a non-retryable
// error, or the budget is spent. op receives the attempt number and the
// simulated time at which it fires.
func (r Retryer) Do(start simtime.Time, key uint64, op func(attempt int, at simtime.Time) error) Outcome {
	budget := r.Budget
	if budget < 1 {
		budget = 1
	}
	t := start
	var err error
	for a := 0; a < budget; a++ {
		err = op(a, t)
		if err == nil {
			return Outcome{Attempts: a + 1, End: t}
		}
		if r.Retryable != nil && !r.Retryable(err) {
			return Outcome{Attempts: a + 1, End: t, Err: err}
		}
		if a+1 < budget {
			t = t.Add(r.Backoff.Delay(key, a))
		}
	}
	return Outcome{Attempts: budget, End: t, Err: err}
}

// DoSleep is Do for wall-clock clients: backoff delays become real sleeps
// (scaled by perHour, e.g. 0.0001 turns a 1-simulated-hour delay into
// 360ms). Returns attempts used and the final error.
func (r Retryer) DoSleep(key uint64, perHour float64, op func(attempt int) error) (int, error) {
	budget := r.Budget
	if budget < 1 {
		budget = 1
	}
	var err error
	for a := 0; a < budget; a++ {
		err = op(a)
		if err == nil {
			return a + 1, nil
		}
		if r.Retryable != nil && !r.Retryable(err) {
			return a + 1, err
		}
		if a+1 < budget {
			//itmlint:allow nodeterm DoSleep is the documented wall-clock bridge
			time.Sleep(time.Duration(float64(AsDuration(r.Backoff.Delay(key, a))) * perHour))
		}
	}
	return budget, err
}
