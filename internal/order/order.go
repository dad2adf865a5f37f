// Package order provides deterministic iteration over Go maps. Map
// iteration order is randomized per run, so any fold, append, or write
// driven directly by `range m` produces run-dependent output; these
// helpers pin iteration to sorted key order so identical (config, seed)
// runs emit identical bytes. itm-lint's maporder and floatfold analyzers
// steer offending loops here. ByRank and SortByRank order by a rank the
// caller gives, in time linear in the map's size; the map's JSON lists its
// keys through them.
package order

import (
	"cmp"
	"slices"
)

// Number covers the accumulator types the simulator folds over maps.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// Keys returns the keys of m in ascending order.
func Keys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// KeysFunc returns the keys of m sorted by compare (as in slices.SortFunc).
// Use it for struct keys that have no natural cmp.Ordered form.
func KeysFunc[M ~map[K]V, K comparable, V any](m M, compare func(a, b K) int) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.SortFunc(ks, compare)
	return ks
}

// SumValues folds m's values in ascending key order. For float values this
// fixes the association order, so the low bits of the total are identical
// across runs — the property the byte-parity tests depend on.
func SumValues[M ~map[K]V, K cmp.Ordered, V Number](m M) V {
	var total V
	for _, k := range Keys(m) {
		total += m[k]
	}
	return total
}

// Entry is one of a map's keys with its value.
type Entry[K comparable, V any] struct {
	Key   K
	Value V
}

// ByRank returns m's entries ordered by rank of their keys, ascending, in
// time linear in len(m) (see SortByRank). rank must be injective over m's
// keys: two keys of one rank panic.
func ByRank[M ~map[K]V, K comparable, V any](m M, rank func(K) uint64) []Entry[K, V] {
	var s Scratch[Entry[K, V]]
	sorted := SortByRank(&s, m, func(k K, v V) (Entry[K, V], uint64) { return Entry[K, V]{k, v}, rank(k) })
	es := make([]Entry[K, V], len(sorted))
	for i := range sorted {
		es[i] = sorted[i].Value
	}
	return es
}

// Ranked is one value SortByRank orders, with its rank.
type Ranked[E any] struct {
	Rank  uint64
	Value E
}

// Scratch is SortByRank's working space, kept between calls by a caller
// that sorts often. Its zero value is ready.
type Scratch[E any] struct{ a, b []Ranked[E] }

// SortByRank makes one value and its rank per entry of m with entry and
// returns them in ascending rank order, in a slice of s's that is valid
// until s is used again. It is an LSD radix sort on the ranks' bytes that
// skips every byte all ranks share, so ranks with a few varying bytes cost
// a few passes. The ranks must be distinct: a repeated one panics, as does
// an order the sort got wrong.
func SortByRank[M ~map[K]V, K comparable, V, E any](s *Scratch[E], m M, entry func(K, V) (E, uint64)) []Ranked[E] {
	if n := len(m); cap(s.a) < n || cap(s.b) < n {
		buf := make([]Ranked[E], 2*n) // both buffers, one allocation
		s.a, s.b = buf[:n:n], buf[n:]
	}
	a := s.a[:0]
	var diff uint64 // the bits in which some rank differs from the first
	for k, v := range m {
		e, r := entry(k, v)
		a = append(a, Ranked[E]{r, e})
		diff |= r ^ a[0].Rank
	}
	a, s.b = radix(a, s.b[:len(a)], diff)
	// An equal rank counts as out of order, so this also catches a repeat.
	if !slices.IsSortedFunc(a, func(x, y Ranked[E]) int { return cmp.Or(cmp.Compare(x.Rank, y.Rank), -1) }) {
		panic("order: ranks repeat or are out of order")
	}
	s.a = a
	return a
}

// radix sorts a by rank, one stable counting pass per byte set in diff,
// lowest first, scattering between a and b, which is as long as a; it
// returns the sorted slice and the other one.
func radix[E any](a, b []Ranked[E], diff uint64) (sorted, spare []Ranked[E]) {
	for shift := 0; shift < 64; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue // every rank holds the same byte here
		}
		var at [256]int
		for i := range a {
			at[byte(a[i].Rank>>shift)]++
		}
		for d, sum := 0, 0; d < len(at); d++ {
			at[d], sum = sum, sum+at[d]
		}
		for i := range a {
			d := byte(a[i].Rank >> shift)
			b[at[d]] = a[i]
			at[d]++
		}
		a, b = b, a
	}
	return a, b
}
