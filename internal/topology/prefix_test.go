package topology_test

import (
	"net/netip"
	"slices"
	"sync"
	"testing"

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
// MarshalText's, and the parser's inverse, for every /24 there is.
func TestPrefixStringMatchesNetip(t *testing.T) {
	var want []byte
	for id := topology.PrefixID(0); id <= topology.MaxPrefixID; id++ {
		s := id.String()
		if want = netip.PrefixFrom(id.Addr(0), 24).AppendTo(want[:0]); s != string(want) {
			t.Fatalf("PrefixID(%d).String() = %q, netip says %q", id, s, want)
		}
		text, err := id.MarshalText()
		var back topology.PrefixID
		if err != nil || string(text) != s || back.UnmarshalText(text) != nil || back != id {
			t.Fatalf("PrefixID(%d): MarshalText %q, %v; parsed back to %d", id, text, err, back)
		}
	}
	// IDs above 24 bits keep netip's truncation to the low three octets.
	for _, id := range []topology.PrefixID{1 << 24, 0xfffffff0, 0xffffffff} {
		if got, want := id.String(), netip.PrefixFrom(id.Addr(0), 24).String(); got != want {
			t.Errorf("PrefixID(%#x).String() = %q, netip says %q", id, got, want)
		}
	}
}

// TestParsePrefixRejectsOutOfRangeOctets: an octet above 255 is refused, not
// wrapped into a neighbouring /24.
func TestParsePrefixRejectsOutOfRangeOctets(t *testing.T) {
	var p topology.PrefixID
	for _, s := range []string{"300.0.0.0/24", "1.256.0.0/24", "-1.2.3.0/24"} {
		if err := p.UnmarshalText([]byte(s)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted an out-of-range octet", s)
		}
	}
	if err := p.UnmarshalText([]byte("203.0.113.0/24")); err != nil || p.String() != "203.0.113.0/24" {
		t.Errorf("UnmarshalText(203.0.113.0/24) = %v, %v", p, err)
	}
}

// TestParsePrefixRoundTrip: every prefix of a generated world parses back
// from its text; leading zeros parse to the canonical ID, and what is not a
// /24 in CIDR notation does not parse at all.
func TestParsePrefixRoundTrip(t *testing.T) {
	for _, want := range topology.Generate(topology.TinyGenConfig(3)).AllPrefixes() {
		text, _ := want.MarshalText()
		var got topology.PrefixID
		if err := got.UnmarshalText(text); err != nil || got != want {
			t.Fatalf("UnmarshalText(%q) = %v, %v", text, got, err)
		}
	}
	var p topology.PrefixID
	if err := p.UnmarshalText([]byte("01.002.3.0/24")); err != nil || p.String() != "1.2.3.0/24" {
		t.Errorf("leading zeros: %v, %v", p, err)
	}
	for _, s := range []string{"zzz", "10.0.0.0/8", "1.2.3.4/24", "1.2.3.0/24x", "", "1.2.3.0/"} {
		if err := p.UnmarshalText([]byte(s)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted", s)
		}
	}
	if _, err := (topology.MaxPrefixID + 1).MarshalText(); err == nil {
		t.Error("an ID wider than 24 bits has a spelling")
	}
}
