package cacheprobe

import (
	"math"
	"testing"

	"itmap/internal/simtime"
	"itmap/internal/stats"
	"itmap/internal/topology"
	"itmap/internal/world"
)

func discover(t testing.TB, w *world.World, rounds int) *Discovery {
	t.Helper()
	pb := &Prober{PR: w.PR, Domains: w.Cat.ECSDomains()[:8]}
	d, err := pb.DiscoverPrefixes(w.Top, w.Top.AllPrefixes(), 0, rounds)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDiscoveryFindsBusyPrefixesOnly(t *testing.T) {
	w := world.Build(world.Tiny(1))
	d := discover(t, w, 4)
	if len(d.Found) == 0 {
		t.Fatal("nothing discovered")
	}
	// Infrastructure prefixes (no users → no queries) never hit.
	for _, p := range d.Found {
		if w.Users.UsersIn(p) == 0 {
			t.Errorf("userless prefix %v discovered", p)
		}
	}
	// Every large eyeball prefix that uses the public resolver is found;
	// the only misses among high-population prefixes are networks that
	// opted out of public DNS entirely.
	missedBig, optedOut := 0, 0
	for _, asn := range w.Top.ASesOfType(topology.Eyeball) {
		a := w.Top.ASes[asn]
		if a.SubscribersK < 3000 {
			continue
		}
		for _, p := range a.Prefixes {
			if w.Users.UsersIn(p) <= 20000 || d.Has(p) {
				continue
			}
			if w.Traffic.UsesPublicResolver(p) {
				missedBig++
			} else {
				optedOut++
			}
		}
	}
	if missedBig > 0 {
		t.Errorf("missed %d high-population public-DNS-using prefixes", missedBig)
	}
	if optedOut == 0 {
		t.Error("expected some opted-out prefixes among the misses")
	}
}

func TestDiscoveryTrafficWeightedRecallHigh(t *testing.T) {
	w := world.Build(world.Tiny(2))
	d := discover(t, w, 4)
	mx := w.Traffic.BuildMatrix()
	var total, found float64
	for p, b := range mx.RefCDNByPrefix {
		total += b
		if d.Has(p) {
			found += b
		}
	}
	if total == 0 {
		t.Fatal("no reference CDN traffic")
	}
	recall := found / total
	if recall < 0.85 {
		t.Errorf("traffic-weighted recall %.2f, want >= 0.85 (paper: 0.95)", recall)
	}
}

func TestPoPCountsSumToFound(t *testing.T) {
	w := world.Build(world.Tiny(3))
	d := discover(t, w, 3)
	counts := d.PoPCounts(w.PR)
	sum := 0
	for _, pc := range counts {
		sum += pc.Prefixes
	}
	if sum != len(d.Found) {
		t.Errorf("PoP counts sum %d != found %d", sum, len(d.Found))
	}
	for i := 1; i < len(counts); i++ {
		if counts[i].Prefixes > counts[i-1].Prefixes {
			t.Fatal("PoP counts not sorted descending")
		}
	}
}

func TestMoreRoundsNeverFindLess(t *testing.T) {
	w := world.Build(world.Tiny(4))
	d1 := discover(t, w, 1)
	d4 := discover(t, w, 4)
	if len(d4.Found) < len(d1.Found) {
		t.Errorf("4 rounds found %d < 1 round %d", len(d4.Found), len(d1.Found))
	}
}

func TestHitRatesTrackActivity(t *testing.T) {
	w := world.Build(world.Tiny(5))
	pb := &Prober{PR: w.PR, Domains: w.Cat.ECSDomains()}
	domain := w.Cat.ECSDomains()[0]
	hr, err := pb.MeasureHitRates(w.Top, w.Top.AllPrefixes(), domain, 0, 15*simtime.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Per-AS hit rate should rank-correlate with true AS client traffic.
	mx := w.Traffic.BuildMatrix()
	var xs, ys []float64
	for _, asn := range w.Top.ASesOfType(topology.Eyeball) {
		if rate, ok := hr.ByAS[asn]; ok {
			xs = append(xs, rate)
			ys = append(ys, mx.ClientASBytes[asn])
		}
	}
	if len(xs) < 10 {
		t.Fatalf("only %d eyeballs measured", len(xs))
	}
	if rho := stats.Spearman(xs, ys); rho < 0.4 {
		t.Errorf("hit-rate vs activity Spearman %.2f, want > 0.4", rho)
	}
	for p, rate := range hr.ByPrefix {
		if rate < 0 || rate > 1 {
			t.Fatalf("hit rate %f out of range for %v", rate, p)
		}
	}
}

func TestHitRateZeroForIdle(t *testing.T) {
	w := world.Build(world.Tiny(6))
	pb := &Prober{PR: w.PR, Domains: w.Cat.ECSDomains()}
	domain := w.Cat.ECSDomains()[0]
	// Probe only hypergiant infrastructure prefixes.
	hgs := w.Top.ASesOfType(topology.Hypergiant)
	prefixes := w.Top.ASes[hgs[0]].Prefixes
	hr, err := pb.MeasureHitRates(w.Top, prefixes, domain, 0, simtime.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for p, rate := range hr.ByPrefix {
		if rate != 0 {
			t.Errorf("infrastructure prefix %v has hit rate %f", p, rate)
		}
	}
}

// TestIntervalLongerThanDayStillProbesOnce: an interval above 24 h used to
// truncate to zero probes per prefix and publish 0/0 = NaN hit rates.
func TestIntervalLongerThanDayStillProbesOnce(t *testing.T) {
	w := world.Build(world.Tiny(6))
	domain := w.Cat.ECSDomains()[0]
	prefixes := w.Top.AllPrefixes()[:300]
	pb := &Prober{PR: w.PR}
	for _, interval := range []simtime.Time{25, 48, 1000} {
		hr, err := pb.MeasureHitRates(w.Top, prefixes, domain, 0, interval)
		if err != nil {
			t.Fatal(err)
		}
		if hr.ProbesPerPrefix != 1 || len(hr.ByPrefix) != len(prefixes) {
			t.Errorf("interval %v: %d probes per prefix over %d prefixes, want 1 over %d",
				interval, hr.ProbesPerPrefix, len(hr.ByPrefix), len(prefixes))
		}
		for p, rate := range hr.ByPrefix {
			if rate != 0 && rate != 1 {
				t.Fatalf("interval %v: prefix %v hit rate %v from one probe", interval, p, rate)
			}
		}
		hp, err := pb.MeasureHourlyProfile(w.Top, prefixes, domain, 0, interval)
		if err != nil {
			t.Fatal(err)
		}
		if hp.Probes[0] != len(prefixes) {
			t.Errorf("hourly interval %v: %d probes in hour 0, want %d", interval, hp.Probes[0], len(prefixes))
		}
	}
}

func TestRateFromHitRateInversion(t *testing.T) {
	// Inverting p = 1 - exp(-rate*TTL) recovers the rate across regimes.
	for _, rate := range []float64{0.5, 5, 60, 600} { // queries/hour
		ttl := 60 // seconds
		p := 1 - mathExp(-rate*float64(ttl)/3600)
		got := RateFromHitRate(p, 1000000, ttl)
		if got < rate*0.99 || got > rate*1.01 {
			t.Errorf("rate %f inverted to %f", rate, got)
		}
	}
	if RateFromHitRate(0, 100, 60) != 0 {
		t.Error("zero hit rate should invert to zero")
	}
	if RateFromHitRate(0.5, 100, 0) != 0 {
		t.Error("zero TTL should yield zero")
	}
	// Saturated observations are clamped, not infinite.
	v := RateFromHitRate(1.0, 96, 60)
	if v <= 0 || v > 1e6 {
		t.Errorf("saturated inversion %f out of range", v)
	}
	// More probes resolve larger saturated rates.
	if RateFromHitRate(1.0, 1000, 60) <= RateFromHitRate(1.0, 10, 60) {
		t.Error("probe count does not extend resolvable range")
	}
}

func mathExp(x float64) float64 { return math.Exp(x) }

// TestDiscoveryRefusesUnorderedTargets: a naive sweep lists what it finds in
// target order, so targets out of order or repeated are refused rather than
// turned into a Found that does not ascend.
func TestDiscoveryRefusesUnorderedTargets(t *testing.T) {
	w := world.Build(world.Tiny(1))
	pb := &Prober{PR: w.PR, Domains: w.Cat.ECSDomains()[:1]}
	all := w.Top.AllPrefixes()
	for _, targets := range [][]topology.PrefixID{{all[1], all[0]}, {all[0], all[2], all[2]}} {
		if d, err := pb.DiscoverPrefixes(w.Top, targets, 0, 1); err == nil {
			t.Errorf("targets %v: found %v, want an error", targets, d.Found)
		}
	}
}
