package faults

import (
	"testing"

	"itmap/internal/simtime"
)

func TestNilAndZeroPlansInjectNothing(t *testing.T) {
	var nilPlan *Plan
	zero := NewPlan(None(), 1)
	for _, pl := range []*Plan{nilPlan, zero} {
		if pl.Enabled() {
			t.Fatal("inert plan reports enabled")
		}
		for hour := 0; hour < 48; hour++ {
			tm := simtime.Time(hour)
			if err := pl.ProbeFault(3, 7, 11, 0, tm); err != nil {
				t.Fatalf("inert plan injected %v", err)
			}
			if pl.PoPDown(0, tm) || pl.SourceBanned(9, tm) || pl.ICMPDropped(1, 2, 0, tm) {
				t.Fatal("inert plan injected a fault")
			}
		}
	}
}

func TestPlanDeterminism(t *testing.T) {
	a := NewPlan(Hostile(), 42)
	b := NewPlan(Hostile(), 42)
	other := NewPlan(Hostile(), 43)
	diverged := false
	for i := 0; i < 2000; i++ {
		tm := simtime.Time(float64(i) * 0.017)
		pop := i % 8
		src := uint64(i % 5)
		key := uint64(i * 2654435761)
		ea := a.ProbeFault(pop, src, key, i%4, tm)
		eb := b.ProbeFault(pop, src, key, i%4, tm)
		if (ea == nil) != (eb == nil) || (ea != nil && ea.Error() != eb.Error()) {
			t.Fatalf("same (plan, inputs) diverged: %v vs %v", ea, eb)
		}
		if eo := other.ProbeFault(pop, src, key, i%4, tm); (ea == nil) != (eo == nil) {
			diverged = true
		}
	}
	if !diverged {
		t.Error("different seeds never diverged")
	}
}

func TestAttemptRerollsFaults(t *testing.T) {
	pl := NewPlan(Profile{Name: "loss", PacketLoss: 0.5}, 9)
	// With 50% loss, some key must fail on attempt 0 and pass on a retry —
	// the retry is a fresh datagram, not a replay of the same coin.
	recovered := false
	for key := uint64(0); key < 64 && !recovered; key++ {
		if pl.ProbeFault(0, 1, key, 0, 5) == nil {
			continue
		}
		for attempt := 1; attempt < 8; attempt++ {
			if pl.ProbeFault(0, 1, key, attempt, 5) == nil {
				recovered = true
				break
			}
		}
	}
	if !recovered {
		t.Error("no retry ever re-rolled a lost probe")
	}
}

func TestBanWindowsAreIntervals(t *testing.T) {
	pl := NewPlan(Hostile(), 11)
	w := pl.Profile().ThrottleWindow
	// Find a banned instant, then check the ban is a contiguous window of
	// the configured duration (scanning at fine resolution).
	var bannedAt simtime.Time = -1
	for i := 0; i < 10000; i++ {
		tm := simtime.Time(float64(i) * 0.01)
		if pl.SourceBanned(1, tm) {
			bannedAt = tm
			break
		}
	}
	if bannedAt < 0 {
		t.Fatal("hostile profile never banned the source")
	}
	// Walk left and right to the edges; total extent must be close to
	// BanDuration (never exceeding it plus scan resolution).
	step := simtime.Time(0.002)
	lo, hi := bannedAt, bannedAt
	for lo > 0 && pl.SourceBanned(1, lo-step) {
		lo -= step
	}
	for pl.SourceBanned(1, hi+step) {
		hi += step
	}
	extent := hi - lo
	// Adjacent windows can chain bans back-to-back, so allow up to two.
	if extent < simtime.Time(0.5)*pl.Profile().BanDuration || extent > 2*pl.Profile().BanDuration+w {
		t.Errorf("ban extent %.3fh outside plausible range (ban %.3fh)",
			float64(extent), float64(pl.Profile().BanDuration))
	}
}

func TestPoPOutagesBoundedPerDay(t *testing.T) {
	pl := NewPlan(Hostile(), 3)
	dur := pl.Profile().PoPOutageDuration
	for pop := 0; pop < 10; pop++ {
		down := 0
		const step = 0.01
		for i := 0; i < int(24/step); i++ {
			if pl.PoPDown(pop, simtime.Time(float64(i)*step)) {
				down++
			}
		}
		if got := simtime.Time(float64(down) * step); got > dur+simtime.Time(2*step) {
			t.Errorf("pop %d down %.2fh in one day, max %.2fh", pop, float64(got), float64(dur))
		}
	}
}

func TestProfilesMonotoneInSeverity(t *testing.T) {
	c, l, h := Calm(), Lossy(), Hostile()
	if !(c.PacketLoss < l.PacketLoss && l.PacketLoss < h.PacketLoss) {
		t.Error("packet loss not increasing across presets")
	}
	if !(c.ThrottleTripProb < l.ThrottleTripProb && l.ThrottleTripProb < h.ThrottleTripProb) {
		t.Error("throttle trip prob not increasing across presets")
	}
	for _, name := range []string{"none", "calm", "lossy", "hostile"} {
		p, ok := ByName(name)
		if !ok || p.Name != name {
			t.Errorf("ByName(%q) = %+v, %v", name, p, ok)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName accepted an unknown profile")
	}
}

func TestIsTransient(t *testing.T) {
	for _, err := range []error{ErrTimeout, ErrServfail, ErrThrottled} {
		if !IsTransient(err) {
			t.Errorf("%v not transient", err)
		}
	}
	if IsTransient(nil) {
		t.Error("nil transient")
	}
}
