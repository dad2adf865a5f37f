package ipid

import (
	"math"
	"testing"

	"itmap/internal/simtime"
	"itmap/internal/stats"
	"itmap/internal/topology"
	"itmap/internal/users"
	"itmap/internal/world"
)

func meter(t testing.TB, seed int64) (*world.World, *Meter) {
	t.Helper()
	w := world.Build(world.Tiny(seed))
	mx := w.Traffic.BuildMatrix()
	return w, NewMeter(w.Top, mx, seed)
}

// trueHourlyRate is the ground-truth counter velocity of an AS's router at
// time t (increments/hour): what the estimator is validated against.
func trueHourlyRate(m *Meter, asn topology.ASN, t simtime.Time) float64 {
	local := t.UTCHour() + m.offset[asn]
	f := users.DiurnalFactor(math.Mod(local+48, 24))
	return m.BackgroundRate + m.scale*m.load[asn]/24*f/users.DiurnalMean
}

func TestVelocityEstimateMatchesTruth(t *testing.T) {
	w, m := meter(t, 1)
	// Pick a loaded transit AS.
	var asn topology.ASN
	for _, a := range w.Top.ASesOfType(topology.Transit) {
		asn = a
		break
	}
	samples := ProbeVelocity(m, asn, 0, 24, 15*simtime.Minute)
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	for _, s := range samples {
		truth := trueHourlyRate(m, asn, s.T)
		if truth > 500 && math.Abs(s.Rate-truth)/truth > 0.25 {
			t.Errorf("at t=%v velocity %.0f vs truth %.0f", s.T, s.Rate, truth)
		}
	}
}

func TestVelocityDiurnal(t *testing.T) {
	w, m := meter(t, 2)
	diurnal := 0
	checked := 0
	for _, asn := range w.Top.ASesOfType(topology.Eyeball) {
		samples := ProbeVelocity(m, asn, 0, 72, 30*simtime.Minute)
		if MeanRate(samples) < 100 {
			continue // background-dominated router; skip
		}
		checked++
		if DiurnalitySwing(samples) > 0.4 {
			diurnal++
		}
	}
	if checked == 0 {
		t.Skip("no loaded eyeball routers")
	}
	if frac := float64(diurnal) / float64(checked); frac < 0.8 {
		t.Errorf("only %.0f%% of loaded routers look diurnal", frac*100)
	}
}

func TestVelocityCorrelatesWithLoad(t *testing.T) {
	w := world.Build(world.Tiny(3))
	mx := w.Traffic.BuildMatrix()
	m := NewMeter(w.Top, mx, 3)
	var xs, ys []float64
	for _, asn := range w.Top.ASNs() {
		if mx.ASLoad[asn] == 0 {
			continue
		}
		samples := ProbeVelocity(m, asn, 0, 24, 30*simtime.Minute)
		xs = append(xs, MeanRate(samples))
		ys = append(ys, mx.ASLoad[asn])
	}
	if len(xs) < 20 {
		t.Fatalf("only %d routers probed", len(xs))
	}
	if rho := stats.Spearman(xs, ys); rho < 0.9 {
		t.Errorf("velocity vs load Spearman %.2f, want > 0.9", rho)
	}
}

func TestCounterWrapsHandled(t *testing.T) {
	_, m := meter(t, 4)
	// The busiest router wraps within hours; frequent sampling must
	// still recover a sane velocity.
	var busiest topology.ASN
	best := 0.0
	for asn, l := range m.load {
		if l > best {
			best, busiest = l, asn
		}
	}
	fast := ProbeVelocity(m, busiest, 0, 12, 10*simtime.Minute)
	truthMean := 0.0
	for _, s := range fast {
		truthMean += trueHourlyRate(m, busiest, s.T)
	}
	truthMean /= float64(len(fast))
	got := MeanRate(fast)
	if math.Abs(got-truthMean)/truthMean > 0.1 {
		t.Errorf("wrap handling broke velocity: got %.0f, truth %.0f", got, truthMean)
	}
}

func TestBackgroundOnlyRouterFlat(t *testing.T) {
	_, m := meter(t, 5)
	// An AS with zero traffic load still answers pings with the
	// background rate and shows no diurnal swing.
	var idle topology.ASN
	found := false
	for asn, l := range m.load {
		if l == 0 {
			idle, found = asn, true
			break
		}
	}
	if !found {
		t.Skip("no idle AS")
	}
	samples := ProbeVelocity(m, idle, 0, 48, simtime.Hour)
	if swing := DiurnalitySwing(samples); swing > 0.2 {
		t.Errorf("idle router shows diurnal swing %.2f", swing)
	}
	if mr := MeanRate(samples); math.Abs(mr-m.BackgroundRate) > 2 {
		t.Errorf("idle router rate %.1f, want background %.1f", mr, m.BackgroundRate)
	}
}

func TestDiurnalitySwingEdgeCases(t *testing.T) {
	if DiurnalitySwing(nil) != 0 {
		t.Error("empty samples should score 0")
	}
	flat := []Sample{{T: 1, Rate: 5}, {T: 13, Rate: 5}}
	if DiurnalitySwing(flat) != 0 {
		t.Error("flat series should score 0")
	}
	if MeanRate(nil) != 0 {
		t.Error("empty MeanRate should be 0")
	}
}
