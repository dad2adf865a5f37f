package loadgen

import (
	"bytes"
	"testing"

	"itmap/internal/experiments"
	"itmap/internal/mapstore"
	"itmap/internal/obs"
	"itmap/internal/world"
)

// replayStore builds a small static store. Each replay gets a fresh one:
// the deterministic-ledger contract is per (initial store state, seed),
// and response caches warm as a replay runs.
func replayStore(t *testing.T) *mapstore.Store {
	t.Helper()
	return buildStore(t, 3, experiments.MeshSpec{})
}

func buildStore(t *testing.T, days int, mesh experiments.MeshSpec) *mapstore.Store {
	t.Helper()
	s := mapstore.NewStore()
	if err := experiments.BuildEpochStore(s, world.Build(world.Tiny(7)), days, mesh); err != nil {
		t.Fatalf("BuildEpochStore: %v", err)
	}
	return s
}

func replay(t *testing.T, seed int64, workers int) *Counters {
	t.Helper()
	res, err := Run(Config{Seed: seed, Requests: 600, Workers: workers},
		HandlerDoer{Handler: mapstore.NewHandler(replayStore(t))})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestSameSeedSameCounters(t *testing.T) {
	a, err := replay(t, 1, 4).MarshalSorted()
	if err != nil {
		t.Fatal(err)
	}
	b, err := replay(t, 1, 4).MarshalSorted()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("same-seed replays diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	// Key-affinity sharding makes the deterministic ledger independent of
	// concurrency: 1 worker and 4 workers must observe identical counters.
	one, err := replay(t, 2, 1).MarshalSorted()
	if err != nil {
		t.Fatal(err)
	}
	four, err := replay(t, 2, 4).MarshalSorted()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one, four) {
		t.Errorf("worker counts changed the deterministic ledger:\nworkers=1:\n%s\nworkers=4:\n%s", one, four)
	}
}

func TestReplayExercisesCache(t *testing.T) {
	c := replay(t, 3, 2)
	if got := c.Total(); got != 600 {
		t.Fatalf("Total = %d, want 600", got)
	}
	if c.HitRatio() == 0 {
		t.Error("HitRatio = 0: replay never hit the cache or revalidated")
	}
	if c.NotModified == 0 {
		t.Error("replay produced no 304s: If-None-Match path untested")
	}
	if c.Results["store"] == 0 {
		t.Error("replay produced no zero-copy binary serves")
	}
	if c.ETagChanges != 0 {
		t.Errorf("ETagChanges = %d against a static store, want 0", c.ETagChanges)
	}
	for _, route := range []string{"/v1/top", "/v1/as/{asn}", "/v1/map/{epoch}", "/v1/diff/{a}/{b}"} {
		if c.Requests[route] == 0 {
			t.Errorf("route %s never requested", route)
		}
	}
}

// TestServerCountersDeterministic pins the *server-side* cache counters:
// replaying the same plan against a fresh store must produce identical
// itm_cache_* totals regardless of worker count, because each URL's
// request sequence is serialized by key affinity.
func TestServerCountersDeterministic(t *testing.T) {
	dump := func(workers int) string {
		prev := obs.Swap(obs.NewSet())
		defer obs.Swap(prev)
		s := replayStore(t)
		if _, err := Run(Config{Seed: 5, Requests: 600, Workers: workers},
			HandlerDoer{Handler: mapstore.NewHandler(s)}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		var buf bytes.Buffer
		if err := obs.Metrics().WritePrometheus(&buf, false); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		return buf.String()
	}
	one := dump(1)
	four := dump(4)
	if one != four {
		t.Errorf("server counters differ between worker counts:\nworkers=1:\n%s\nworkers=4:\n%s", one, four)
	}
}

// meshReplayStore builds a store whose epochs carry mesh sections, so the
// mesh mix has pairs to discover.
func meshReplayStore(t *testing.T) *mapstore.Store {
	t.Helper()
	return buildStore(t, 2, experiments.MeshSpec{Agents: 24, Rounds: 1})
}

func meshReplay(t *testing.T, seed int64, workers int) *Counters {
	t.Helper()
	res, err := Run(Config{Seed: seed, Requests: 400, Workers: workers, Mix: "mesh"},
		HandlerDoer{Handler: mapstore.NewHandler(meshReplayStore(t))})
	if err != nil {
		t.Fatalf("Run(mesh): %v", err)
	}
	return res
}

// TestMeshMixWorkerInvariance: the mesh mix obeys the same determinism
// contract as the map mix — key-affinity sharding keeps the ledger
// identical across worker counts.
func TestMeshMixWorkerInvariance(t *testing.T) {
	one, err := meshReplay(t, 11, 1).MarshalSorted()
	if err != nil {
		t.Fatal(err)
	}
	four, err := meshReplay(t, 11, 4).MarshalSorted()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one, four) {
		t.Errorf("mesh mix ledger depends on workers:\nworkers=1:\n%s\nworkers=4:\n%s", one, four)
	}
}

// TestMeshMixExercisesRoutes: every mesh route appears, only mesh routes
// appear, and both the revalidation and warm-cache paths fire.
func TestMeshMixExercisesRoutes(t *testing.T) {
	c := meshReplay(t, 12, 2)
	if got := c.Total(); got != 400 {
		t.Fatalf("Total = %d, want 400", got)
	}
	for _, route := range []string{"/v1/path/{a}/{b}", "/v1/latency/{a}/{b}", "/v1/latency/top"} {
		if c.Requests[route] == 0 {
			t.Errorf("route %s never requested", route)
		}
	}
	if len(c.Requests) != 3 {
		t.Errorf("mesh mix hit non-mesh routes: %v", c.Requests)
	}
	if c.NotModified == 0 {
		t.Error("mesh replay produced no 304s: If-None-Match path untested")
	}
	if c.Results["hit"] == 0 {
		t.Error("mesh replay never hit the response cache")
	}
	if c.ETagChanges != 0 {
		t.Errorf("ETagChanges = %d against a static store, want 0", c.ETagChanges)
	}
}

// TestMeshMixNeedsMesh: against a store built without mesh sections the
// mesh mix fails fast at discovery instead of replaying 404s.
func TestMeshMixNeedsMesh(t *testing.T) {
	_, err := Run(Config{Seed: 1, Requests: 10, Mix: "mesh"},
		HandlerDoer{Handler: mapstore.NewHandler(replayStore(t))})
	if err == nil {
		t.Fatal("mesh mix against a meshless store succeeded")
	}
	if _, err := Run(Config{Seed: 1, Requests: 10, Mix: "bogus"},
		HandlerDoer{Handler: mapstore.NewHandler(replayStore(t))}); err == nil {
		t.Fatal("unknown mix accepted")
	}
}
