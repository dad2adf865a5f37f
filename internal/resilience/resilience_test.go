package resilience

import (
	"errors"
	"testing"

	"itmap/internal/simtime"
)

var errBoom = errors.New("boom")

func TestBackoffGrowsAndCaps(t *testing.T) {
	b := Backoff{Base: simtime.Minute, Factor: 3, Cap: 10 * simtime.Minute}
	prev := simtime.Time(0)
	for a := 0; a < 6; a++ {
		d := b.Delay(1, a)
		if d < prev {
			t.Fatalf("delay shrank at attempt %d: %v < %v", a, d, prev)
		}
		if d > 10*simtime.Minute {
			t.Fatalf("delay %v exceeds cap", d)
		}
		prev = d
	}
	if b.Delay(1, 5) != 10*simtime.Minute {
		t.Errorf("deep attempt not capped: %v", b.Delay(1, 5))
	}
}

func TestBackoffJitterDeterministic(t *testing.T) {
	b := Backoff{Base: simtime.Minute, Factor: 2, Jitter: 0.5, Seed: 7}
	if b.Delay(3, 2) != b.Delay(3, 2) {
		t.Fatal("jittered delay not reproducible")
	}
	if b.Delay(3, 2) == b.Delay(4, 2) {
		t.Error("different keys share identical jitter (suspicious)")
	}
	// Jitter stays within ±50%.
	raw := 4 * simtime.Minute
	for key := uint64(0); key < 100; key++ {
		d := b.Delay(key, 2)
		if d < simtime.Time(0.5)*raw || d > simtime.Time(1.5)*raw {
			t.Fatalf("jittered delay %v outside ±50%% of %v", d, raw)
		}
	}
}

func TestRetryerStopsOnSuccessAndBudget(t *testing.T) {
	r := Retryer{Budget: 4, Backoff: Backoff{Base: simtime.Minute}}
	calls := 0
	out := r.Do(0, 1, func(attempt int, at simtime.Time) error {
		calls++
		if attempt == 2 {
			return nil
		}
		return errBoom
	})
	if out.Err != nil || out.Attempts != 3 || calls != 3 {
		t.Fatalf("success path: %+v, calls %d", out, calls)
	}
	if out.End <= 0 {
		t.Error("End did not advance through backoff")
	}

	calls = 0
	out = r.Do(0, 1, func(int, simtime.Time) error { calls++; return errBoom })
	if !errors.Is(out.Err, errBoom) || calls != 4 {
		t.Fatalf("budget path: %+v, calls %d", out, calls)
	}
}

func TestRetryerNonRetryable(t *testing.T) {
	r := Retryer{Budget: 5, Retryable: func(err error) bool { return !errors.Is(err, errBoom) }}
	out := r.Do(0, 1, func(int, simtime.Time) error { return errBoom })
	if out.Attempts != 1 || !errors.Is(out.Err, errBoom) {
		t.Fatalf("non-retryable error retried: %+v", out)
	}
}

func TestRetryerTimesAreDeterministic(t *testing.T) {
	r := Retryer{Budget: 5, Backoff: Backoff{Base: simtime.Minute, Factor: 2, Jitter: 0.4, Seed: 3}}
	run := func() []simtime.Time {
		var at []simtime.Time
		r.Do(7, 99, func(_ int, t simtime.Time) error {
			at = append(at, t)
			return errBoom
		})
		return at
	}
	a, b := run(), run()
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("attempts %d/%d, want 5", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d fired at %v then %v", i, a[i], b[i])
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailThreshold: 3, Cooldown: simtime.Hour})
	now := simtime.Time(0)
	for i := 0; i < 3; i++ {
		if !b.Allow(now) {
			t.Fatalf("closed breaker rejected request %d", i)
		}
		b.Record(now, false)
	}
	if b.Opens != 1 {
		t.Fatalf("Opens = %d after threshold failures", b.Opens)
	}
	if b.Allow(now.Add(30 * simtime.Minute)) {
		t.Fatal("open breaker allowed during cooldown")
	}
	trial := now.Add(simtime.Hour)
	if !b.Allow(trial) {
		t.Fatal("half-open trial rejected after cooldown")
	}
	// Failed trial restarts the cooldown from the trial time.
	b.Record(trial, false)
	if b.Allow(trial.Add(30 * simtime.Minute)) {
		t.Fatal("failed trial did not restart cooldown")
	}
	trial2 := trial.Add(simtime.Hour)
	if !b.Allow(trial2) {
		t.Fatal("second trial rejected")
	}
	b.Record(trial2, true)
	if !b.Allow(trial2) || b.open {
		t.Fatal("successful trial did not close the breaker")
	}
}

func TestPacerEnforcesRate(t *testing.T) {
	// 10 qps, burst 2: the first two fire immediately, the rest space out
	// at 100ms of simulated time.
	p := NewPacer(10, 2)
	start := simtime.Time(1)
	var grants []simtime.Time
	for i := 0; i < 6; i++ {
		grants = append(grants, p.Next(start))
	}
	if grants[0] != start || grants[1] != start {
		t.Fatalf("burst not honoured: %v", grants[:2])
	}
	gap := simtime.Seconds(0.1)
	for i := 2; i < len(grants); i++ {
		if grants[i] <= grants[i-1] {
			t.Fatalf("grants not monotone: %v", grants)
		}
		d := grants[i] - grants[i-1]
		if d < gap*simtime.Time(0.99) || d > gap*simtime.Time(1.01) {
			t.Fatalf("grant gap %v, want ~%v", d, gap)
		}
	}
	// Idle time refills the bucket.
	later := grants[len(grants)-1] + simtime.Hour
	if p.Next(later) != later {
		t.Error("refilled pacer delayed an idle-period request")
	}
}

func TestPacerDisabled(t *testing.T) {
	p := NewPacer(0, 1)
	for i := 0; i < 5; i++ {
		if p.Next(2) != 2 {
			t.Fatal("disabled pacer delayed a request")
		}
	}
	var nilPacer *Pacer
	if nilPacer.Next(3) != 3 {
		t.Fatal("nil pacer delayed a request")
	}
}

func TestDoSleepRetries(t *testing.T) {
	r := Retryer{Budget: 3, Backoff: Backoff{Base: simtime.Seconds(1)}}
	calls := 0
	attempts, err := r.DoSleep(1, 1e-9, func(int) error {
		calls++
		if calls < 3 {
			return errBoom
		}
		return nil
	})
	if err != nil || attempts != 3 || calls != 3 {
		t.Fatalf("DoSleep: attempts=%d err=%v calls=%d", attempts, err, calls)
	}
}
