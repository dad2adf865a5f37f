package order_test

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"itmap/internal/order"
	"itmap/internal/randx"
	"itmap/internal/topology"
)

// reference is what ByRank is checked against: every entry collected, then
// a comparison sort of the keys.
func reference[K comparable, V any](m map[K]V, compare func(a, b K) int) []order.Entry[K, V] {
	var es []order.Entry[K, V]
	for k, v := range m {
		es = append(es, order.Entry[K, V]{Key: k, Value: v})
	}
	slices.SortFunc(es, func(a, b order.Entry[K, V]) int { return compare(a.Key, b.Key) })
	return es
}

// TestByRankMatchesComparisonSort: the radix kernel lists a map's entries,
// values and all, as sorting them by rank does. Each case builds its map
// afresh, so each walks it in an order of its own.
func TestByRankMatchesComparisonSort(t *testing.T) {
	id := func(k uint64) uint64 { return k }
	cases := []struct {
		name string
		keys func() []uint64
		rank func(uint64) uint64
	}{
		{"empty", func() []uint64 { return nil }, id},
		{"one", func() []uint64 { return []uint64{42} }, id},
		{"one at the top", func() []uint64 { return []uint64{1<<64 - 1} }, id},
		// Only bits 40–47 differ: seven of the eight passes are skipped.
		{"one varying byte", func() []uint64 {
			var ks []uint64
			for d := uint64(0); d < 256; d += 3 {
				ks = append(ks, 0x1122_3344_5566_7788&^(0xff<<40)|d<<40)
			}
			return ks
		}, id},
		// The ranks reverse the keys, so the order is not the keys' own.
		{"reversed", func() []uint64 {
			var ks []uint64
			for i := uint64(0); i < 3000; i++ {
				ks = append(ks, randx.Hash64(3, i)>>(i%64))
			}
			return ks
		}, func(k uint64) uint64 { return ^k }},
		{"every byte varies", func() []uint64 {
			var ks []uint64
			for i := uint64(0); i < 5000; i++ {
				ks = append(ks, randx.Hash64(4, i))
			}
			return ks
		}, id},
	}
	for _, c := range cases {
		m := map[uint64]int{}
		for i, k := range c.keys() {
			m[k] = i
		}
		want := reference(m, func(a, b uint64) int { return cmp.Compare(c.rank(a), c.rank(b)) })
		got := order.ByRank(m, c.rank)
		if len(got) != len(m) || !slices.Equal(got, want) {
			t.Errorf("%s: ByRank lists %d entries out of the reference order (%d entries)", c.name, len(got), len(want))
		}
	}
}

// TestByRankTextOrder: the two rank functions the map's JSON writer uses
// list prefixes as their spellings sort, wide IDs by their top byte above
// that, and ASNs of every digit count as their spellings sort.
func TestByRankTextOrder(t *testing.T) {
	prefixes := map[topology.PrefixID]int{}
	for i := uint64(0); i < 4000; i++ {
		p := topology.PrefixID(randx.Hash64(5, i))
		if i%4 != 0 {
			p &= topology.MaxPrefixID
		}
		prefixes[p] = int(i)
	}
	want := reference(prefixes, func(a, b topology.PrefixID) int {
		return cmp.Or(cmp.Compare(a>>24, b>>24), strings.Compare(a.String(), b.String()))
	})
	if !slices.Equal(topology.PrefixesByText(prefixes), want) {
		t.Error("PrefixesByText differs from the spellings' order, wide IDs last by top byte")
	}

	asns := map[topology.ASN]int{0: 0}
	for digits, v := 1, uint64(1); digits <= 10; digits, v = digits+1, v*10 {
		asns[topology.ASN(v)] = digits
		for i := uint64(0); i < 40; i++ {
			asns[topology.ASN(min(v+randx.Hash64(6, i)%(9*v), 1<<32-1))] = digits
		}
	}
	spelled := func(a topology.ASN) string { return strconv.FormatUint(uint64(a), 10) }
	wantASNs := reference(asns, func(a, b topology.ASN) int { return strings.Compare(spelled(a), spelled(b)) })
	if !slices.Equal(topology.ASNsByText(asns), wantASNs) {
		t.Error("ASNsByText differs from the spellings' order")
	}
}

// TestSortByRankReusesScratch: one Scratch serves calls of growing and
// shrinking sizes, each value keeping its rank.
func TestSortByRankReusesScratch(t *testing.T) {
	var s order.Scratch[uint32]
	entry := func(k uint32, v uint64) (uint32, uint64) { return k, v }
	for _, n := range []int{1000, 10, 0, 3000, 1} {
		m := map[uint32]uint64{}
		for i := 0; i < n; i++ {
			k := uint32(randx.Hash64(7, uint64(i*n)))
			m[k] = uint64(^k)
		}
		want := reference(m, func(a, b uint32) int { return cmp.Compare(b, a) })
		got := order.SortByRank(&s, m, entry)
		if len(got) != len(want) {
			t.Fatalf("n=%d: SortByRank returns %d values for %d entries", n, len(got), len(want))
		}
		for i, r := range got {
			if r.Value != want[i].Key || r.Rank != want[i].Value {
				t.Fatalf("n=%d: SortByRank with reused scratch is out of order at %d", n, i)
			}
		}
	}
}

// TestByRankPanicsOnRepeatedRank: two keys of one rank are a programming
// error, not a tie to break.
func TestByRankPanicsOnRepeatedRank(t *testing.T) {
	for _, m := range []map[int]bool{{1: true, 3: true}, {1: true, 3: true, 258: true, 4: true}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ByRank(%v) with a repeated rank did not panic", m)
				}
			}()
			order.ByRank(m, func(k int) uint64 { return uint64(k) % 2 })
		}()
	}
}
