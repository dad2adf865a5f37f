package experiments

import (
	"testing"

	"itmap/internal/faults"
	"itmap/internal/mapstore"
	"itmap/internal/measure/cacheprobe"
	"itmap/internal/obs"
	"itmap/internal/resilience"
	"itmap/internal/simtime"
	"itmap/internal/world"
)

// runObsCampaign runs a mini measurement campaign — a 2-epoch store build
// plus a faulted resilient discovery sweep — against a fresh observability
// set and returns the stable metrics dump and the trace export.
func runObsCampaign(t *testing.T, workers int) (string, string) {
	t.Helper()
	prev := obs.Swap(obs.NewSet())
	defer obs.Swap(prev)

	w := world.Build(world.Tiny(7))
	if err := BuildEpochStore(mapstore.NewStore(), w, 2, workers, MeshSpec{}); err != nil {
		t.Fatal(err)
	}

	prof, ok := faults.ByName("lossy")
	if !ok {
		t.Fatal("no lossy fault preset")
	}
	w.PR.SetFaultPlan(faults.NewPlan(prof, 7))
	defer w.PR.SetFaultPlan(nil)
	obs.ActivateTrace("sweep")
	rp := &cacheprobe.ResilientProber{
		PR:      w.PR,
		Domains: w.Cat.ECSDomains()[:1],
		Retry: resilience.Retryer{
			Budget:  3,
			Backoff: resilience.Backoff{Base: 4 * simtime.Minute, Factor: 2, Jitter: 0.4, Seed: 7},
		},
		Breaker: resilience.BreakerConfig{FailThreshold: 3, Cooldown: simtime.Hour},
		QPS:     50,
		Shards:  4,
		Workers: workers,
	}
	if _, _, err := rp.DiscoverPrefixes(w.Top, w.Top.AllPrefixes(), 0, 2); err != nil {
		t.Fatal(err)
	}

	metrics := obs.Metrics().StableExposition()
	traces, err := obs.Tracing().ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	return metrics, string(traces)
}

// TestObsDumpsByteIdentical is the observability determinism contract: two
// runs of the same seeded campaign — even at different worker counts, since
// shard counts are fixed — produce byte-identical stable metrics dumps and
// trace exports.
func TestObsDumpsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs a full tiny-world build")
	}
	m1, t1 := runObsCampaign(t, 1)
	m2, t2 := runObsCampaign(t, 1)
	if m1 != m2 {
		t.Errorf("stable metrics dumps differ between identical runs:\n%s", firstDiff(m1, m2))
	}
	if t1 != t2 {
		t.Errorf("trace exports differ between identical runs:\n%s", firstDiff(t1, t2))
	}
	m4, t4 := runObsCampaign(t, 4)
	if m1 != m4 {
		t.Errorf("stable metrics dump depends on worker count:\n%s", firstDiff(m1, m4))
	}
	if t1 != t4 {
		t.Errorf("trace export depends on worker count:\n%s", firstDiff(t1, t4))
	}
	if m1 == "" || t1 == "" {
		t.Fatal("campaign produced empty dumps")
	}
	// Only a mesh build registers the fleet's families.
	if fams := stableFamilies(m1, []string{"itm_mesh_"}); len(fams) != 0 {
		t.Errorf("map-only campaign lists mesh families %v", fams)
	}
}

// firstDiff renders the first differing region of two dumps, for a readable
// failure instead of two multi-kilobyte blobs.
func firstDiff(a, b string) string {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	lo := max(0, i-120)
	end := func(s string) int { return min(len(s), i+120) }
	return "…" + a[lo:end(a)] + "…\nvs\n…" + b[lo:end(b)] + "…"
}
