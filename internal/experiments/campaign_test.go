package experiments

import (
	"maps"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

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
// and hit rates, building every day's map sends the hit-rate campaign's
// probes once and each day's discovery probes once, and the store the days
// fill shares each section equal to the previous day's — the hit-rate
// section, the campaign's one fold, on every day.
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

	st := mapstore.NewStore()
	if err := ingestDays(st, envs, MeshSpec{}); err != nil {
		t.Fatal(err)
	}
	eps := st.Snapshot()
	for d := 1; d < len(eps); d++ {
		cur, prev := eps[d].Doc, eps[d-1].Doc
		sameHits := maps.Equal(cur.PrefixHitRates, prev.PrefixHitRates)
		if !sameHits {
			t.Errorf("day %d's hit-rate section differs from day %d's", d, d-1)
		}
		var equal int
		for _, same := range []bool{
			sameHits,
			slices.Equal(cur.ActivePrefixes, prev.ActivePrefixes),
			maps.Equal(cur.ASActivity, prev.ASActivity),
			maps.Equal(cur.Sources, prev.Sources),
			slices.Equal(cur.Servers, prev.Servers),
			slices.Equal(cur.Mappings, prev.Mappings),
		} {
			if same {
				equal++
			}
		}
		if eps[d].SharedSections != equal {
			t.Errorf("day %d shares %d sections with day %d, %d are equal", d, eps[d].SharedSections, d-1, equal)
		}
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
	if err := BuildEpochStore(mapstore.NewStore(), w, 2, MeshSpec{Agents: 24, Rounds: 2}); err != nil {
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
	if err := ingestDays(mapstore.NewStore(), envs, MeshSpec{}); err != nil {
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

// TestEpochStoreHoldsNoWorld: the store BuildEpochStore fills keeps only
// what was measured — no epoch references the world, its topology or its
// traffic model — so the world is collected while the store lives on.
func TestEpochStoreHoldsNoWorld(t *testing.T) {
	defer obs.Swap(obs.Swap(obs.NewSet()))
	defer history.Swap(history.Swap(history.NewRing(0)))
	st := mapstore.NewStore()
	collected := make(chan struct{})
	func() {
		w := world.Build(world.Tiny(5))
		runtime.SetFinalizer(w, func(*world.World) { close(collected) })
		if err := BuildEpochStore(st, w, 2, MeshSpec{Agents: 24, Rounds: 2}); err != nil {
			t.Fatal(err)
		}
	}()
	for range 20 {
		runtime.GC()
		select {
		case <-collected:
			if st.Len() != 2 || st.Latest().MeshDoc == nil {
				t.Fatalf("store holds %d epochs, want 2 with a mesh", st.Len())
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the world outlives BuildEpochStore: the store still references it")
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
