package botfilter

import (
	"math"
	"testing"

	"itmap/internal/measure/cacheprobe"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/world"
)

func classifyEnterprises(t testing.TB, w *world.World, limit int) []Verdict {
	t.Helper()
	pb := &cacheprobe.Prober{PR: w.PR}
	c := NewClassifier(pb, w.Cat.ECSDomains()[:10])
	var out []Verdict
	for _, asn := range w.Top.ASesOfType(topology.Enterprise) {
		for _, p := range w.Top.ASes[asn].Prefixes {
			v, err := c.Classify(w.Top, p)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
			if limit > 0 && len(out) >= limit {
				return out
			}
		}
	}
	return out
}

func TestClassifierSeparatesBotsFromPeople(t *testing.T) {
	w := world.Build(world.Tiny(1))
	verdicts := classifyEnterprises(t, w, 0)
	ev := Evaluate(verdicts, w.Traffic.IsBotPrefix)
	if ev.Observed < 12 {
		t.Fatalf("only %d prefixes observed", ev.Observed)
	}
	if ev.Precision < 0.85 {
		t.Errorf("human precision %.2f, want >= 0.85", ev.Precision)
	}
	if ev.Recall < 0.6 {
		t.Errorf("human recall %.2f, want >= 0.6", ev.Recall)
	}
	if ev.BotRecall < 0.6 {
		t.Errorf("bot recall %.2f, want >= 0.6", ev.BotRecall)
	}
}

// TestSamplesClearOfWindowEdges: every hourly profile the classifier reads
// is the same when its samples move one ulp either way, so no verdict rests
// on which side of a TTL window edge a sample's rounding fell. Samples from
// midnight, as the classifier took them before, sit on the edges.
func TestSamplesClearOfWindowEdges(t *testing.T) {
	w := world.Build(world.Tiny(1))
	pb := &cacheprobe.Prober{PR: w.PR}
	c := NewClassifier(pb, w.Cat.ECSDomains()[:10])
	moved := func(start simtime.Time, p topology.PrefixID, domain string) bool {
		t.Helper()
		var profiles [3]cacheprobe.HourlyProfile
		for i, at := range []float64{math.Nextafter(float64(start), 0), float64(start), math.Nextafter(float64(start), 48)} {
			hp, err := pb.MeasureHourlyProfile(w.Top, []topology.PrefixID{p}, domain, simtime.Time(at), c.Interval)
			if err != nil {
				t.Fatal(err)
			}
			profiles[i] = *hp
		}
		return profiles[0] != profiles[1] || profiles[2] != profiles[1]
	}
	fromMidnight := 0
	for _, asn := range w.Top.ASesOfType(topology.Enterprise) {
		for _, p := range w.Top.ASes[asn].Prefixes[:1] {
			for _, domain := range c.Domains {
				svc, _ := w.Cat.ByDomain(domain)
				for day := 0; day < c.Days; day++ {
					if moved(cacheprobe.DayStart(day, c.Interval, svc.TTLSeconds), p, domain) {
						t.Errorf("%v, %s, day %d: the profile moves with one ulp of clock", p, domain, day)
					}
					if moved(simtime.Time(24*day), p, domain) {
						fromMidnight++
					}
				}
			}
		}
	}
	if fromMidnight == 0 {
		t.Error("no profile sampled from midnight moved with one ulp: the check is vacuous")
	}
}

func TestGroundTruthHasBots(t *testing.T) {
	w := world.Build(world.Tiny(2))
	bots, total := 0, 0
	for _, asn := range w.Top.ASesOfType(topology.Enterprise) {
		for _, p := range w.Top.ASes[asn].Prefixes {
			total++
			if w.Traffic.IsBotPrefix(p) {
				bots++
			}
		}
	}
	if bots == 0 || bots == total {
		t.Fatalf("bot farms %d of %d implausible", bots, total)
	}
	// Bots never appear outside enterprise space.
	for _, asn := range w.Top.ASesOfType(topology.Eyeball)[:5] {
		for _, p := range w.Top.ASes[asn].Prefixes {
			if w.Traffic.IsBotPrefix(p) {
				t.Fatalf("eyeball prefix %v marked bot", p)
			}
		}
	}
}

func TestUnobservedPrefixNotClassified(t *testing.T) {
	w := world.Build(world.Tiny(3))
	pb := &cacheprobe.Prober{PR: w.PR}
	c := NewClassifier(pb, w.Cat.ECSDomains()[:3])
	// Infrastructure prefix: no users, no hits.
	hg := w.Top.ASesOfType(topology.Hypergiant)[0]
	v, err := c.Classify(w.Top, w.Top.ASes[hg].Prefixes[0])
	if err != nil {
		t.Fatal(err)
	}
	if v.Observed || v.Human {
		t.Errorf("silent prefix classified: %+v", v)
	}
}

func TestEvaluateEdgeCases(t *testing.T) {
	ev := Evaluate(nil, func(topology.PrefixID) bool { return false })
	if ev.Observed != 0 || ev.Precision != 0 {
		t.Error("empty evaluation not zero")
	}
}
