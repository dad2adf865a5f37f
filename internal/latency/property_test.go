package latency_test

import (
	"testing"

	"itmap/internal/geo"
	"itmap/internal/latency"
	"itmap/internal/topology"
	"itmap/internal/world"
)

// The mesh layer's property contract on the RTT model: pair measurements
// are exactly symmetric, noise never beats the speed of light, and the
// triangle-inequality violation rate is a pure function of the seed.

func modelAndPrefixes(t *testing.T, seed int64) (*latency.Model, *world.World, []topology.PrefixID) {
	t.Helper()
	w := world.Build(world.Tiny(seed))
	m := latency.New(w.Top, w.Paths, seed)
	// Even the tiny world has tens of thousands of eyeball prefixes and the
	// properties are quadratic/cubic in the sample, so take a deterministic
	// stride: one prefix per eyeball AS, capped.
	const maxSample = 24
	var prefixes []topology.PrefixID
	for _, asn := range w.Top.ASesOfType(topology.Eyeball) {
		if ps := w.Top.ASes[asn].Prefixes; len(ps) > 0 {
			prefixes = append(prefixes, ps[0])
		}
		if len(prefixes) == maxSample {
			break
		}
	}
	if len(prefixes) < 4 {
		t.Fatalf("tiny world has only %d sampled prefixes", len(prefixes))
	}
	return m, w, prefixes
}

// TestPairRTTSymmetry: a round trip has no direction, so the canonicalized
// pair measurement must be bit-for-bit equal in either argument order, for
// every probe sequence number.
func TestPairRTTSymmetry(t *testing.T) {
	m, _, prefixes := modelAndPrefixes(t, 21)
	pairs := 0
	for i, a := range prefixes {
		for _, b := range prefixes[i+1:] {
			for seq := 0; seq < 4; seq++ {
				ab, okAB := m.PairRTTms(a, b, seq)
				ba, okBA := m.PairRTTms(b, a, seq)
				if okAB != okBA || ab != ba {
					t.Fatalf("PairRTTms(%v,%v,%d)=%v,%v but reversed %v,%v", a, b, seq, ab, okAB, ba, okBA)
				}
				if okAB {
					pairs++
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no reachable pairs exercised")
	}
}

// TestRTTNoiseFloor: jitter is strictly additive, so no measurement —
// however many probes — dips below the jitter-free base RTT, and the base
// never beats great-circle light propagation in fiber.
func TestRTTNoiseFloor(t *testing.T) {
	m, w, prefixes := modelAndPrefixes(t, 22)
	checked := 0
	for i, a := range prefixes {
		for _, b := range prefixes[i+1:] {
			base, ok := m.BaseRTTms(a, b)
			if !ok {
				continue
			}
			light := geo.DistanceKm(w.Top.PrefixCity[a].Coord, w.Top.PrefixCity[b].Coord) / latency.KmPerMsRTT
			if base < light {
				t.Fatalf("base RTT %v beats light floor %v for %v-%v", base, light, a, b)
			}
			for seq := 0; seq < 16; seq++ {
				rtt, ok := m.PairRTTms(a, b, seq)
				if !ok || rtt < base {
					t.Fatalf("probe %d of %v-%v: rtt %v below base %v", seq, a, b, rtt, base)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no reachable pairs exercised")
	}
}
