package experiments

import (
	"testing"

	"itmap/internal/mapstore"
	"itmap/internal/world"
)

// TestETagsWorkerCountStable is the validator half of the determinism
// contract: ETags derive from each epoch's canonical ITMB encoding, so a
// store built with 1 worker and one built with 4 must issue identical tags
// for every epoch. A client that cached against one replica then revalidates
// correctly against any other.
func TestETagsWorkerCountStable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two tiny-world epoch stores")
	}
	build := func(workers int) []string {
		s := mapstore.NewStore()
		if err := BuildEpochStore(s, world.Build(world.Tiny(11)), 3, workers, MeshSpec{}); err != nil {
			t.Fatalf("BuildEpochStore(workers=%d): %v", workers, err)
		}
		var tags []string
		for _, e := range s.Snapshot() {
			if e.ETag == "" {
				t.Fatalf("epoch %d has no ETag", e.ID)
			}
			tags = append(tags, e.ETag)
		}
		return tags
	}
	one := build(1)
	four := build(4)
	if len(one) != 3 || len(four) != 3 {
		t.Fatalf("epoch counts: %d vs %d, want 3", len(one), len(four))
	}
	for i := range one {
		if one[i] != four[i] {
			t.Errorf("epoch %d ETag differs by worker count: %q vs %q", i, one[i], four[i])
		}
	}
	// Distinct epochs carry distinct tags (the generation is in the tag).
	for i := 1; i < len(one); i++ {
		if one[i] == one[i-1] {
			t.Errorf("epochs %d and %d share ETag %q", i-1, i, one[i])
		}
	}
}
