package topology_test

import (
	"slices"
	"sync"
	"testing"

	"itmap/internal/core"
	"itmap/internal/geo"
	"itmap/internal/topology"
	"itmap/internal/world"
)

// collectAndSort is AllPrefixes as it stood before the memo.
func collectAndSort(t *topology.Topology) []topology.PrefixID {
	out := make([]topology.PrefixID, 0, len(t.PrefixOwner))
	for p := range t.PrefixOwner {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// TestAllPrefixesMemo: the memoized axis is the collect-and-sort it replaces,
// is one slice per topology, notices an allocation made after it was built,
// and is not inherited stale by a subgraph, which shares PrefixOwner.
func TestAllPrefixesMemo(t *testing.T) {
	top := topology.Generate(topology.TinyGenConfig(3))
	first := top.AllPrefixes()
	if !slices.Equal(first, collectAndSort(top)) {
		t.Fatal("AllPrefixes differs from collect-and-sort")
	}
	if again := top.AllPrefixes(); &again[0] != &first[0] || len(again) != len(first) {
		t.Error("a second call re-derived the axis")
	}
	if grown := append(first, 0); &grown[0] == &first[0] {
		t.Error("appending to the shared slice wrote into it")
	}

	sub := top.SubgraphWithLinks(map[topology.LinkKey]bool{})
	if !slices.Equal(sub.AllPrefixes(), first) {
		t.Fatal("subgraph axis differs from its parent's")
	}

	owner := top.ASNs()[0]
	fresh := top.AllocPrefixes(owner, 3, geo.RegionHub(geo.Regions()[0]))
	after := top.AllPrefixes()
	if len(after) != len(first)+3 || !slices.Equal(after, collectAndSort(top)) {
		t.Fatalf("axis has %d prefixes after allocating 3 onto %d", len(after), len(first))
	}
	for _, p := range fresh {
		if _, ok := slices.BinarySearch(after, p); !ok {
			t.Errorf("allocated %v missing from the axis", p)
		}
	}
	// The subgraph memoized before the allocation and shares the owner map.
	if !slices.Equal(sub.AllPrefixes(), after) {
		t.Error("subgraph served a stale axis after its parent allocated")
	}
}

// TestAllPrefixesConcurrentReaders: world.Build leaves the axis built, so
// campaigns may read it from many goroutines (run with -race).
func TestAllPrefixesConcurrentReaders(t *testing.T) {
	w := world.Build(world.Tiny(3))
	want := collectAndSort(w.Top)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !slices.Equal(w.Top.AllPrefixes(), want) {
				t.Error("concurrent reader saw a different axis")
			}
		}()
	}
	wg.Wait()
}

// TestPrefixStringMatchesNetip: the hand-rolled formatter is net/netip's,
// and the document parser's inverse, for every /24 there is.
func TestPrefixStringMatchesNetip(t *testing.T) {
	var want []byte
	for id := topology.PrefixID(0); id < 1<<24; id++ {
		s := id.String()
		if want = id.Prefix().AppendTo(want[:0]); s != string(want) {
			t.Fatalf("PrefixID(%d).String() = %q, netip says %q", id, s, want)
		}
		if back, err := core.ParsePrefix(s); err != nil || back != id {
			t.Fatalf("ParsePrefix(%q) = %v, %v; want %d", s, back, err, id)
		}
	}
	// IDs above 24 bits keep netip's truncation to the low three octets.
	for _, id := range []topology.PrefixID{1 << 24, 0xfffffff0, 0xffffffff} {
		if got, want := id.String(), id.Prefix().String(); got != want {
			t.Errorf("PrefixID(%#x).String() = %q, netip says %q", id, got, want)
		}
	}
}
