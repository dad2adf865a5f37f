package experiments

import (
	"reflect"
	"sync"
	"testing"

	"itmap/internal/bgp"
	"itmap/internal/mapstore"
	"itmap/internal/obs"
	"itmap/internal/obs/history"
	"itmap/internal/topology"
	"itmap/internal/world"
)

// naiveDatagrams is the series both the discovery sweeps and the hit-rate
// campaign move.
const naiveDatagrams = `itm_probe_datagrams_total{mode="naive"}`

// hitRateProbes is the number of probes e's hit-rate campaign sends.
func hitRateProbes(e *Env) float64 {
	hr := e.HitRates()
	return float64(hr.ProbesPerPrefix * len(hr.ByPrefix))
}

// TestModelEpochEnvsRunNothing: preparing the days runs no campaign; the
// first one runs when a day asks for it.
func TestModelEpochEnvsRunNothing(t *testing.T) {
	w := world.Build(world.Tiny(5))
	set := obs.NewSet()
	defer obs.Swap(obs.Swap(set))
	before := history.Flatten(set.Reg)
	envs := EpochEnvs(w, 3, 0)
	if after := history.Flatten(set.Reg); !reflect.DeepEqual(after, before) {
		t.Errorf("EpochEnvs moved the counters: %v, then %v", before, after)
	}
	envs[2].HitRates()
	if reflect.DeepEqual(history.Flatten(set.Reg), before) {
		t.Fatal("the hit-rate campaign moved no counter: the check is vacuous")
	}
}

// TestModelDaysShareOneCampaign: every day of EpochEnvs holds day 0's scan
// and hit rates, and building every day's map sends the hit-rate
// campaign's probes once and each day's discovery probes once.
func TestModelDaysShareOneCampaign(t *testing.T) {
	w := world.Build(world.Tiny(5))
	set := obs.NewSet()
	defer obs.Swap(obs.Swap(set))
	const days = 3
	envs := EpochEnvs(w, days, 0)
	for _, e := range envs {
		e.Map()
	}
	want := hitRateProbes(envs[0])
	for d, e := range envs {
		want += float64(e.Discovery().Probes)
		if e.Scan() != envs[0].Scan() || e.Map().Scan != envs[0].Scan() {
			t.Errorf("day %d holds a TLS scan of its own", d)
		}
		if e.HitRates() != envs[0].HitRates() {
			t.Errorf("day %d holds a hit-rate campaign of its own", d)
		}
	}
	if got := discoveryCounters(set)[naiveDatagrams]; got != want {
		t.Errorf("%d days' maps sent %v naive datagrams, one hit-rate campaign and %d discoveries %v", days, got, days, want)
	}
}

// TestModelMeshSampleCountsHitRates: a boot runs the hit-rate campaign the
// maps share before day 0's mesh campaign, so the telemetry sample that
// campaign records already counts its probes (and no discovery's).
func TestModelMeshSampleCountsHitRates(t *testing.T) {
	w := world.Build(world.Tiny(5))
	prev := obs.Swap(obs.NewSet())
	want := hitRateProbes(NewEnvFromWorld(w))
	obs.Swap(prev)

	defer obs.Swap(obs.Swap(obs.NewSet()))
	defer history.Swap(history.Swap(history.NewRing(0)))
	if err := BuildEpochStore(mapstore.NewStore(), w, 2, 0, MeshSpec{Agents: 24, Rounds: 2}); err != nil {
		t.Fatal(err)
	}
	for _, s := range history.Default().Snapshot().Samples {
		if s.Source != "mesh" {
			continue
		}
		got := 0.0
		for _, kv := range s.Values {
			if kv.Key == naiveDatagrams {
				got = kv.Value
			}
		}
		if got != want {
			t.Errorf("day 0's mesh sample %s counts %v naive datagrams, the hit-rate campaign sends %v", s.Label, got, want)
		}
		return
	}
	t.Fatal("the boot recorded no mesh sample")
}

// TestModelBootSkipsCollectorView: a boot never computes the collector
// view (the MRT export and parse and the observed subgraph); nothing it
// serves reads it.
func TestModelBootSkipsCollectorView(t *testing.T) {
	w := world.Build(world.Tiny(5))
	defer obs.Swap(obs.Swap(obs.NewSet()))
	envs := EpochEnvs(w, 2, 0)
	c, views := envs[0].c, 0
	collector, obsLinks, observed := c.collector, c.obsLinks, c.observed
	c.collector = func() *bgp.Collector { views++; return collector() }
	c.obsLinks = func() map[topology.LinkKey]bool { views++; return obsLinks() }
	c.observed = func() *topology.Topology { views++; return observed() }
	if err := ingestDays(mapstore.NewStore(), envs, 0, MeshSpec{}); err != nil {
		t.Fatal(err)
	}
	if views != 0 {
		t.Errorf("the boot asked for the collector view %d times", views)
	}
	envs[0].Observed()
	if views == 0 {
		t.Fatal("asking for the observed topology counted nothing: the check is vacuous")
	}
}

// TestDaysAskedConcurrently: goroutines asking every day for its map and
// the shared artifacts at once all get the same values, each built once.
func TestDaysAskedConcurrently(t *testing.T) {
	w := world.Build(world.Tiny(5))
	defer obs.Swap(obs.Swap(obs.NewSet()))
	envs := EpochEnvs(w, 3, 0)
	const askers = 4
	got := make([][]any, askers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, e := range envs {
				got[i] = append(got[i], e.Map(), e.Discovery(), e.Crawl(), e.Scan(), e.HitRates())
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < askers; i++ {
		for j := range got[0] {
			if got[i][j] != got[0][j] {
				t.Fatalf("asker %d got a different value %d from asker 0's", i, j)
			}
		}
	}
}
