package bgp

import (
	"testing"

	"itmap/internal/randx"
	"itmap/internal/topology"
)

// buildLine makes a 5-AS chain for hand-checkable routing:
//
//	t1a --peer-- t1b
//	 |            |
//	 tr (cust)   hg (peer of both tier-1s)
//	 |
//
// eb (cust of tr)
func buildLine(t *testing.T) *topology.Topology {
	t.Helper()
	top := topology.NewTopology()
	add := func(asn topology.ASN, ty topology.ASType) {
		top.AddAS(&topology.AS{ASN: asn, Name: "x", Type: ty, Country: "US"})
	}
	add(1, topology.Tier1)
	add(2, topology.Tier1)
	add(10, topology.Transit)
	add(20, topology.Eyeball)
	add(30, topology.Hypergiant)
	top.AddLink(1, 2, topology.RelPeer, topology.PrivatePeering, 0)
	top.AddLink(10, 1, topology.RelProvider, topology.TransitLink, 0)
	top.AddLink(20, 10, topology.RelProvider, topology.TransitLink, 0)
	top.AddLink(30, 1, topology.RelPeer, topology.PrivatePeering, 0)
	top.AddLink(30, 2, topology.RelPeer, topology.PrivatePeering, 0)
	top.Facilities = []topology.Facility{{ID: 0, Name: "f0"}}
	top.Freeze()
	return top
}

func TestRIBHandBuilt(t *testing.T) {
	top := buildLine(t)
	rib := ComputeRIB(top, 30) // routes toward the hypergiant

	cases := []struct {
		src  topology.ASN
		path []topology.ASN
		typ  RouteType
	}{
		{30, []topology.ASN{30}, Origin},
		{1, []topology.ASN{1, 30}, ViaPeer},
		{2, []topology.ASN{2, 30}, ViaPeer},
		{10, []topology.ASN{10, 1, 30}, ViaProvider},
		{20, []topology.ASN{20, 10, 1, 30}, ViaProvider},
	}
	for _, c := range cases {
		got := rib.PathFrom(c.src)
		if len(got) != len(c.path) {
			t.Fatalf("path %d->30 = %v, want %v", c.src, got, c.path)
		}
		for i := range got {
			if got[i] != c.path[i] {
				t.Fatalf("path %d->30 = %v, want %v", c.src, got, c.path)
			}
		}
		i, _ := top.Index(c.src)
		if rib.Type[i] != c.typ {
			t.Errorf("route type at %d = %v, want %v", c.src, rib.Type[i], c.typ)
		}
	}
}

func TestRIBPrefersCustomerOverPeer(t *testing.T) {
	// dst is both a customer (via long chain) and reachable via peer
	// (short): customer route must win despite being longer.
	top := topology.NewTopology()
	add := func(asn topology.ASN, ty topology.ASType) {
		top.AddAS(&topology.AS{ASN: asn, Type: ty, Country: "US"})
	}
	add(1, topology.Tier1)
	add(2, topology.Tier1)
	add(3, topology.Transit) // mid customer of 1
	add(4, topology.Eyeball) // dst: customer of 3, peer of 2
	top.AddLink(1, 2, topology.RelPeer, topology.PrivatePeering, 0)
	top.AddLink(3, 1, topology.RelProvider, topology.TransitLink, 0)
	top.AddLink(4, 3, topology.RelProvider, topology.TransitLink, 0)
	top.AddLink(4, 2, topology.RelPeer, topology.PrivatePeering, 0)
	top.Freeze()

	rib := ComputeRIB(top, 4)
	i1, _ := top.Index(1)
	if rib.Type[i1] != ViaCustomer {
		t.Errorf("AS1 should reach AS4 via customer chain, got %v", rib.Type[i1])
	}
	if got := rib.HopsFrom(1); got != 2 {
		t.Errorf("AS1 hops = %d, want 2 (1-3-4)", got)
	}
	// AS2 hears 4 directly via peering: 1 hop.
	if got := rib.HopsFrom(2); got != 1 {
		t.Errorf("AS2 hops = %d, want 1", got)
	}
}

func TestValleyFreePaths(t *testing.T) {
	top := topology.Generate(topology.TinyGenConfig(21))
	ap := ComputeAll(top)
	asns := top.ASNs()
	rng := randx.New(4)
	checked := 0
	for trial := 0; trial < 3000; trial++ {
		src := asns[rng.Intn(len(asns))]
		dst := asns[rng.Intn(len(asns))]
		path := ap.Path(src, dst)
		if path == nil {
			t.Fatalf("no route %d -> %d in a fully generated world", src, dst)
		}
		if path[0] != src || path[len(path)-1] != dst {
			t.Fatalf("path endpoints wrong: %v for %d->%d", path, src, dst)
		}
		checkValleyFree(t, top, path)
		checked++
	}
	if checked == 0 {
		t.Fatal("no paths checked")
	}
}

// checkValleyFree asserts the path is uphill (customer->provider), then at
// most one peer link, then downhill. Note path direction is src..dst and
// traffic flows src->dst, so each step's relationship is from the earlier
// AS's point of view.
func checkValleyFree(t *testing.T, top *topology.Topology, path []topology.ASN) {
	t.Helper()
	const (
		up = iota
		acrossOrDown
	)
	state := up
	peers := 0
	for i := 0; i+1 < len(path); i++ {
		rel, ok := top.ASes[path[i]].HasNeighbor(path[i+1])
		if !ok {
			t.Fatalf("path %v uses nonexistent link %d-%d", path, path[i], path[i+1])
		}
		switch rel {
		case topology.RelProvider: // going up
			if state != up {
				t.Fatalf("path %v goes up after going across/down", path)
			}
		case topology.RelPeer:
			peers++
			if peers > 1 {
				t.Fatalf("path %v crosses two peer links", path)
			}
			state = acrossOrDown
		case topology.RelCustomer: // going down
			state = acrossOrDown
		}
	}
}

func TestAllPathsSymmetricReachability(t *testing.T) {
	top := topology.Generate(topology.TinyGenConfig(5))
	ap := ComputeAll(top)
	asns := top.ASNs()
	for _, a := range asns[:20] {
		for _, b := range asns[len(asns)-20:] {
			if ap.Hops(a, b) < 0 || ap.Hops(b, a) < 0 {
				t.Fatalf("unreachable pair %d <-> %d", a, b)
			}
		}
	}
}

func TestShortestAmongCustomerRoutes(t *testing.T) {
	// Diamond: 5 has two provider paths up to 1; shortest must win.
	top := topology.NewTopology()
	add := func(asn topology.ASN, ty topology.ASType) {
		top.AddAS(&topology.AS{ASN: asn, Type: ty, Country: "US"})
	}
	add(1, topology.Tier1)
	add(2, topology.Transit)
	add(3, topology.Transit)
	add(4, topology.Transit)
	add(5, topology.Eyeball)
	top.AddLink(2, 1, topology.RelProvider, topology.TransitLink, 0)
	top.AddLink(3, 1, topology.RelProvider, topology.TransitLink, 0)
	top.AddLink(4, 3, topology.RelProvider, topology.TransitLink, 0)
	top.AddLink(5, 2, topology.RelProvider, topology.TransitLink, 0)
	top.AddLink(5, 4, topology.RelProvider, topology.TransitLink, 0)
	top.Freeze()
	rib := ComputeRIB(top, 5)
	// From 1: customer routes 1-2-5 (2 hops) and 1-3-4-5 (3): want 2.
	if got := rib.HopsFrom(1); got != 2 {
		t.Errorf("hops 1->5 = %d, want 2", got)
	}
	path := rib.PathFrom(1)
	if len(path) != 3 || path[1] != 2 {
		t.Errorf("path 1->5 = %v, want [1 2 5]", path)
	}
}

func TestCollectorMissesGiantPeerings(t *testing.T) {
	top := topology.Generate(topology.SmallGenConfig(17))
	ap := ComputeAll(top)
	col := &Collector{Peers: DefaultCollectorPeers(top, randx.New(1))}
	obs := col.ObservedLinks(ap)
	vis := MeasureVisibility(top, obs)
	if vis.GiantPeerings == 0 {
		t.Fatal("world has no giant peerings")
	}
	if f := vis.FracGiantPeeringsVisible(); f > 0.5 {
		t.Errorf("collectors see %.0f%% of giant peerings; public topologies should miss most", f*100)
	}
	if f := vis.FracVisible(); f <= 0 {
		t.Errorf("collectors observed no links at all (%f)", f)
	}
	// Observed topology must still be a valid subgraph.
	sub := top.SubgraphWithLinks(obs)
	if sub.NumLinks() != vis.VisibleLinks {
		t.Errorf("subgraph has %d links, visibility says %d", sub.NumLinks(), vis.VisibleLinks)
	}
}

func TestUnreachableInPrunedGraph(t *testing.T) {
	top := topology.Generate(topology.TinyGenConfig(2))
	// Keep only transit links: peer-only ASes (hypergiants) become
	// unreachable from below in phase-2-less graphs.
	sub := top.Subgraph(func(l topology.LinkInfo) bool {
		return l.Kind == topology.TransitLink
	})
	hgs := sub.ASesOfType(topology.Hypergiant)
	if len(hgs) == 0 {
		t.Skip("no hypergiants")
	}
	rib := ComputeRIB(sub, hgs[0])
	eyeballs := sub.ASesOfType(topology.Eyeball)
	reach := 0
	for _, e := range eyeballs {
		if rib.PathFrom(e) != nil {
			reach++
		}
	}
	if reach != 0 {
		t.Errorf("%d eyeballs reach a hypergiant with all peering removed", reach)
	}
}

func BenchmarkComputeRIB(b *testing.B) {
	top := topology.Generate(topology.SmallGenConfig(1))
	hgs := top.ASesOfType(topology.Hypergiant)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeRIB(top, hgs[i%len(hgs)])
	}
}

func BenchmarkComputeAllTiny(b *testing.B) {
	top := topology.Generate(topology.TinyGenConfig(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeAll(top)
	}
}
