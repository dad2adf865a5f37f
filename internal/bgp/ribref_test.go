package bgp

import (
	"fmt"
	"slices"
	"testing"

	"itmap/internal/randx"
	"itmap/internal/topology"
)

// refRoute is one AS's best route in the reference: how it was learned and
// the whole AS path, this AS first and the origin last.
type refRoute struct {
	typ  RouteType
	path []topology.ASN
}

// learned is the route type an AS gets from a neighbour it has rel to.
var learned = map[topology.Relationship]RouteType{
	topology.RelCustomer: ViaCustomer,
	topology.RelPeer:     ViaPeer,
	topology.RelProvider: ViaProvider,
}

// better orders candidate routes the Gao–Rexford way: customer over peer over
// provider (the RouteType constants ascend in that order), then the shorter
// path, then the lower next-hop ASN.
func better(a, b refRoute) bool {
	if a.typ != b.typ {
		return a.typ < b.typ
	}
	if len(a.path) != len(b.path) {
		return len(a.path) < len(b.path)
	}
	return a.path[1] < b.path[1]
}

// refRIB is the Gao–Rexford fixed point computed the naive way: every AS but
// the origin starts without a route, and each round every AS takes the best
// route its neighbours export to it, until a round changes nothing. An AS
// exports its own route and customer-learned routes to every neighbour, and
// peer- and provider-learned routes to its customers only; a path that
// already runs through an AS is not offered to it.
func refRIB(top *topology.Topology, origin topology.ASN) (map[topology.ASN]refRoute, error) {
	best := map[topology.ASN]refRoute{origin: {Origin, []topology.ASN{origin}}}
	for round := 0; ; round++ {
		if round > 4*len(top.ASes) {
			return nil, fmt.Errorf("no fixed point after %d rounds", round)
		}
		next := map[topology.ASN]refRoute{origin: best[origin]}
		changed := false
		for _, a := range top.ASNs() {
			if a == origin {
				continue
			}
			var pick refRoute
			for _, nb := range top.ASes[a].Neighbors {
				r, ok := best[nb.ASN]
				exports := r.typ == Origin || r.typ == ViaCustomer || nb.Rel == topology.RelProvider
				if !ok || !exports || slices.Contains(r.path, a) {
					continue
				}
				c := refRoute{learned[nb.Rel], append([]topology.ASN{a}, r.path...)}
				if pick.path == nil || better(c, pick) {
					pick = c
				}
			}
			if pick.path != nil {
				next[a] = pick
			}
			old := best[a]
			changed = changed || pick.typ != old.typ || !slices.Equal(pick.path, old.path)
		}
		best = next
		if !changed {
			return best, nil
		}
	}
}

// ribAgrees compares ComputeRIB toward origin with the reference on every
// AS's route type, path length and next hop.
func ribAgrees(top *topology.Topology, origin topology.ASN) error {
	want, err := refRIB(top, origin)
	if err != nil {
		return err
	}
	rib := ComputeRIB(top, origin)
	asns := top.ASNs()
	for i, asn := range asns {
		ref, ok := want[asn]
		if !ok {
			ref.typ = Unreachable
		}
		if rib.Type[i] != ref.typ {
			return fmt.Errorf("AS%d→AS%d: type %v, reference %v (path %v)", asn, origin, rib.Type[i], ref.typ, ref.path)
		}
		if !ok {
			continue
		}
		if int(rib.PathLen[i]) != len(ref.path)-1 {
			return fmt.Errorf("AS%d→AS%d: %d hops, reference %d (path %v)", asn, origin, rib.PathLen[i], len(ref.path)-1, ref.path)
		}
		if ref.typ != Origin && asns[rib.NextHop[i]] != ref.path[1] {
			return fmt.Errorf("AS%d→AS%d: next hop AS%d, reference AS%d (path %v)", asn, origin, asns[rib.NextHop[i]], ref.path[1], ref.path)
		}
	}
	return nil
}

// randomGraph is a small seeded AS graph with an acyclic provider hierarchy
// (a provider always ranks above its customer) whose ASNs do not follow the
// ranks, so ties break on numbers unrelated to the hierarchy. Sparse links
// leave some ASes unreachable, and every third graph grows an island of two
// ASes tied to the rest by peering alone.
func randomGraph(seed int64) *topology.Topology {
	rng := randx.New(seed)
	n := 4 + rng.Intn(8)
	top := topology.NewTopology()
	asns := make([]topology.ASN, n)
	for i, p := range rng.Perm(n) {
		asns[i] = topology.ASN(100 + p)
		top.AddAS(&topology.AS{ASN: asns[i], Type: topology.Transit, Country: "US"})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch x := rng.Float64(); {
			case x < 0.3:
				top.AddLink(asns[j], asns[i], topology.RelProvider, topology.TransitLink, 0)
			case x < 0.45:
				top.AddLink(asns[j], asns[i], topology.RelPeer, topology.PrivatePeering, 0)
			}
		}
	}
	if seed%3 == 0 {
		top.AddAS(&topology.AS{ASN: 90, Type: topology.Eyeball, Country: "US"})
		top.AddAS(&topology.AS{ASN: 91, Type: topology.Eyeball, Country: "US"})
		top.AddLink(90, 91, topology.RelPeer, topology.PrivatePeering, 0)
		top.AddLink(91, asns[rng.Intn(n)], topology.RelPeer, topology.PrivatePeering, 0)
	}
	top.Freeze()
	return top
}

// TestComputeRIBMatchesFixedPoint holds the three-phase propagation to the
// naive fixed point for every origin of the tiny world and of 50 seeded
// random graphs (peer-only islands and unreachable ASes among them), and
// reports the smallest graph they disagree on.
func TestComputeRIBMatchesFixedPoint(t *testing.T) {
	tiny := topology.Generate(topology.TinyGenConfig(21))
	for _, origin := range tiny.ASNs() {
		if err := ribAgrees(tiny, origin); err != nil {
			t.Fatalf("tiny world: %v", err)
		}
	}
	var smallest *topology.Topology
	var report string
	unreachable := 0
	for seed := int64(1); seed <= 50; seed++ {
		top := randomGraph(seed)
		for _, origin := range top.ASNs() {
			if err := ribAgrees(top, origin); err != nil {
				if smallest == nil || top.NumASes() < smallest.NumASes() {
					smallest, report = top, fmt.Sprintf("seed %d (%d ASes, %d links): %v", seed, top.NumASes(), top.NumLinks(), err)
				}
				break
			}
			for _, typ := range ComputeRIB(top, origin).Type {
				if typ == Unreachable {
					unreachable++
				}
			}
		}
	}
	if smallest != nil {
		t.Fatalf("ComputeRIB departs from the fixed point; smallest graph: %s", report)
	}
	if unreachable == 0 {
		t.Error("no random graph left an AS unreachable: the generator is too dense")
	}
}
