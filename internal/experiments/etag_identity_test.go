package experiments

import (
	"runtime"
	"testing"

	"itmap/internal/mapstore"
	"itmap/internal/world"
)

// withCPUs runs fn with GOMAXPROCS set to cpus (0 leaves it as it is) and
// restores it on return. Tests that call it must not call t.Parallel:
// GOMAXPROCS is process-wide.
func withCPUs(cpus int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cpus))
	fn()
}

// TestETagsWorkerCountStable is the validator half of the determinism
// contract: ETags derive from each epoch's record, its canonical ITMB
// encodings, so a store built on 1 CPU and one built on 4 must issue
// identical tags for every epoch, map and mesh routes alike. A client that
// cached against one replica then revalidates correctly against any other.
// A mesh build gives every epoch a mesh, a map-only build none.
func TestETagsWorkerCountStable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four tiny-world epoch stores")
	}
	build := func(cpus int, mesh MeshSpec) []*mapstore.Epoch {
		s := mapstore.NewStore()
		var err error
		withCPUs(cpus, func() { err = BuildEpochStore(s, world.Build(world.Tiny(11)), 3, mesh) })
		if err != nil {
			t.Fatalf("BuildEpochStore(GOMAXPROCS=%d): %v", cpus, err)
		}
		return s.Snapshot()
	}
	for _, mesh := range []MeshSpec{{}, {Agents: 24, Rounds: 2}} {
		one, four := build(1, mesh), build(4, mesh)
		if len(one) != 3 || len(four) != 3 {
			t.Fatalf("epoch counts: %d vs %d, want 3", len(one), len(four))
		}
		for i, e := range one {
			if e.ETag == "" {
				t.Fatalf("epoch %d has no ETag", e.ID)
			}
			if e.ETag != four[i].ETag {
				t.Errorf("agents %d, epoch %d: ETags differ by CPU count: %q vs %q",
					mesh.Agents, i, e.ETag, four[i].ETag)
			}
			if (e.MeshDoc != nil) != (mesh.Agents > 0) {
				t.Errorf("agents %d, epoch %d: mesh present = %v", mesh.Agents, i, e.MeshDoc != nil)
			}
			// Distinct epochs carry distinct tags (the generation is in the tag).
			if i > 0 && e.ETag == one[i-1].ETag {
				t.Errorf("epochs %d and %d share ETag %q", i-1, i, e.ETag)
			}
		}
	}
}
