package experiments

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"itmap/internal/faults"
	"itmap/internal/mapstore"
	"itmap/internal/measure/cacheprobe"
	"itmap/internal/obs"
	"itmap/internal/resilience"
	"itmap/internal/simtime"
	"itmap/internal/world"
)

// runObsCampaign runs a mini measurement campaign — a 2-epoch store build,
// the ground-truth matrix the experiments read (built after the store, into
// the "default" trace) and a faulted resilient discovery sweep — against a
// fresh observability set, all under GOMAXPROCS=cpus, and returns the stable
// metrics dump and the trace export.
func runObsCampaign(t *testing.T, cpus int) (string, string) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cpus))
	prev := obs.Swap(obs.NewSet())
	defer obs.Swap(prev)

	w := world.Build(world.Tiny(7))
	envs := EpochEnvs(w, 2, 0)
	if err := ingestDays(mapstore.NewStore(), envs, MeshSpec{}); err != nil {
		t.Fatal(err)
	}
	envs[0].Matrix()

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
// runs of the same seeded campaign — even at different CPU counts, since
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
		t.Errorf("stable metrics dump depends on CPU count:\n%s", firstDiff(m1, m4))
	}
	if t1 != t4 {
		t.Errorf("trace export depends on CPU count:\n%s", firstDiff(t1, t4))
	}
	if m1 == "" || t1 == "" {
		t.Fatal("campaign produced empty dumps")
	}
	// The matrix build is part of the comparison: its sharded span tree and
	// its itm_traffic_* values.
	if !strings.Contains(t1, "traffic.build_matrix") || !strings.Contains(m1, "\nitm_traffic_matrix_shards_total ") {
		t.Error("campaign dumps lack the matrix build")
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

// TestLinkBuildLeavesEpochTraces: BuildEpochStore builds no matrix and
// declares none of its families, and a matrix built afterwards
// (Env.Matrix, as the experiments ask for it) records its spans in the
// "default" trace, leaving every epoch's trace byte-equal.
func TestLinkBuildLeavesEpochTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs a full tiny-world build")
	}
	prev := obs.Swap(obs.NewSet())
	defer obs.Swap(prev)

	w := world.Build(world.Tiny(7))
	envs := EpochEnvs(w, 3, 0)
	if err := ingestDays(mapstore.NewStore(), envs, MeshSpec{}); err != nil {
		t.Fatal(err)
	}
	traces := func() []string {
		var out []string
		for d := 0; d < 3; d++ {
			tr, ok := obs.Tracing().Lookup("epoch-" + strconv.Itoa(d))
			if !ok {
				t.Fatalf("no trace epoch-%d", d)
			}
			b, err := tr.ExportJSON()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
		return out
	}
	before := traces()
	if m := obs.Metrics().StableExposition(); strings.Contains(m, "itm_traffic_") {
		t.Fatalf("after boot, want no matrix family:\n%s", m)
	}

	envs[0].Matrix()
	envs[2].Matrix()

	for d, after := range traces() {
		if after != before[d] {
			t.Errorf("epoch-%d trace moved under the matrix build:\n%s", d, firstDiff(before[d], after))
		}
		if strings.Contains(after, "traffic.build_matrix") {
			t.Errorf("epoch-%d trace carries the matrix build", d)
		}
	}
	tr, ok := obs.Tracing().Lookup("default")
	if !ok {
		t.Fatal("no default trace")
	}
	if b, err := tr.ExportJSON(); err != nil || !strings.Contains(string(b), "traffic.build_matrix") {
		t.Errorf("default trace lacks the matrix build (err %v):\n%s", err, b)
	}
	if m := obs.Metrics().StableExposition(); !strings.Contains(m, "\nitm_traffic_matrix_builds_total 1\n") {
		t.Errorf("two days asked, want one matrix build counted:\n%s", m)
	}
}
