package experiments

import (
	"reflect"
	"slices"
	"testing"

	"itmap/internal/measure/cacheprobe"
	"itmap/internal/obs"
	"itmap/internal/obs/history"
	"itmap/internal/simtime"
	"itmap/internal/world"
)

// discoveryFamilies are the series a naive discovery sweep moves.
var discoveryFamilies = []string{
	"itm_dns_probes_total",
	"itm_dns_cache_hits_total",
	`itm_probe_datagrams_total{mode="naive"}`,
	`itm_probe_failed_total{mode="naive"}`,
	"itm_probe_prefixes_found_total",
}

// discoveryCounters reads discoveryFamilies from set.
func discoveryCounters(set *obs.Set) map[string]float64 {
	out := map[string]float64{}
	for _, kv := range history.Flatten(set.Reg) {
		if slices.Contains(discoveryFamilies, kv.Key) {
			out[kv.Key] = kv.Value
		}
	}
	return out
}

// TestModelDiscoveryCountersMoveDayByDay: the epoch environments share one
// discovery sweep over all their days, yet each day's result is the one a
// sweep of that day alone gives, and envs[d].Discovery() moves the process
// counters by exactly that one-day sweep's amounts — nothing of day d
// reaches them before day d is asked for.
func TestModelDiscoveryCountersMoveDayByDay(t *testing.T) {
	w := world.Build(world.Tiny(5))
	const days = 3
	domains := w.Cat.ECSDomains()[:probeDomains]
	pb := &cacheprobe.Prober{PR: w.PR, Domains: domains}
	want := make([]*cacheprobe.Discovery, days)
	wantMoves := make([]map[string]float64, days)
	for d := range want {
		set := obs.NewSet()
		prev := obs.Swap(set)
		var err error
		want[d], err = pb.DiscoverPrefixes(w.Top, w.Top.AllPrefixes(), simtime.Time(d)*simtime.Day, discoveryRounds)
		obs.Swap(prev)
		if err != nil {
			t.Fatal(err)
		}
		wantMoves[d] = discoveryCounters(set)
		if wantMoves[d]["itm_probe_prefixes_found_total"] == 0 || wantMoves[d]["itm_dns_cache_hits_total"] == 0 {
			t.Fatalf("day %d's sweep moved %v: the check is vacuous", d, wantMoves[d])
		}
	}

	set := obs.NewSet()
	defer obs.Swap(obs.Swap(set))
	envs := EpochEnvs(w, days, 0)
	before := discoveryCounters(set)
	for d, e := range envs {
		got := e.Discovery()
		if !reflect.DeepEqual(got, want[d]) {
			t.Errorf("day %d: %d found over %d probes, a one-day sweep %d over %d",
				d, len(got.Found), got.Probes, len(want[d].Found), want[d].Probes)
		}
		after := discoveryCounters(set)
		for _, k := range discoveryFamilies {
			if moved := after[k] - before[k]; moved != wantMoves[d][k] {
				t.Errorf("day %d's Discovery moved %s by %v, a one-day sweep by %v", d, k, moved, wantMoves[d][k])
			}
		}
		before = after
		e.Discovery()
		if again := discoveryCounters(set); !reflect.DeepEqual(again, after) {
			t.Errorf("day %d's second Discovery moved the counters: %v, then %v", d, after, again)
		}
	}
}

// TestModelEpochMapsListTheirOwnDay: every epoch's map lists as its active
// prefixes exactly what a lone sweep of its own day finds, though the days
// share one discovery sweep and one hit-rate fold, and every day's map holds
// the campaign's hit rates.
func TestModelEpochMapsListTheirOwnDay(t *testing.T) {
	w := world.Build(world.Tiny(5))
	const days = 3
	pb := &cacheprobe.Prober{PR: w.PR, Domains: w.Cat.ECSDomains()[:probeDomains]}
	defer obs.Swap(obs.Swap(obs.NewSet()))
	envs := EpochEnvs(w, days, 0)
	hr := envs[0].HitRates()
	differs := false
	for d, e := range envs {
		lone, err := pb.DiscoverPrefixes(w.Top, w.Top.AllPrefixes(), simtime.Time(d)*simtime.Day, discoveryRounds)
		if err != nil {
			t.Fatal(err)
		}
		got := e.Map().ActivePrefixes
		if !slices.Equal(got, lone.Found) {
			t.Errorf("day %d's map lists %d active prefixes, a lone sweep of the day finds %d", d, len(got), len(lone.Found))
		}
		if !slices.IsSorted(got) {
			t.Errorf("day %d's active prefixes are not sorted", d)
		}
		differs = differs || !slices.Equal(got, envs[0].Map().ActivePrefixes)
		rates := e.Map().PrefixHitRates
		for p, v := range hr.ByPrefix {
			if r, ok := rates[p]; v > 0 && (!ok || r != v) || v == 0 && ok {
				t.Fatalf("day %d's map holds hit rate %v for %v, the campaign %v", d, r, p, v)
			}
		}
		if len(rates) == 0 {
			t.Fatalf("day %d's map holds no hit rates: the check is vacuous", d)
		}
	}
	if !differs {
		t.Error("every day finds the same prefixes: the check is vacuous")
	}
}
