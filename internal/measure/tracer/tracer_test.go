package tracer

import (
	"testing"

	"itmap/internal/bgp"
	"itmap/internal/randx"
	"itmap/internal/topology"
	"itmap/internal/world"
)

func TestTracerouteMatchesBGP(t *testing.T) {
	w := world.Build(world.Tiny(1))
	asns := w.Top.ASNs()
	src, dst := asns[0], asns[len(asns)-1]
	fwd := Traceroute(w.Paths, src, dst)
	if fwd == nil || fwd[0] != src || fwd[len(fwd)-1] != dst {
		t.Fatalf("bad traceroute %v", fwd)
	}
	rev := ReverseTraceroute(w.Paths, src, dst)
	if rev == nil || rev[0] != dst || rev[len(rev)-1] != src {
		t.Fatalf("bad reverse traceroute %v", rev)
	}
}

func TestAtlasVPsDistribution(t *testing.T) {
	w := world.Build(world.Small(2))
	vps := AtlasVPs(w.Top, randx.New(1))
	if len(vps) < 5 {
		t.Fatalf("only %d vantage points", len(vps))
	}
	academic := 0
	for _, vp := range vps {
		ty := w.Top.ASes[vp.AS].Type
		if ty != topology.Academic && ty != topology.Eyeball {
			t.Errorf("VP in %v AS", ty)
		}
		if ty == topology.Academic {
			academic++
		}
	}
	if academic == 0 {
		t.Error("no academic vantage points")
	}
}

func TestCampaignLinksAreReal(t *testing.T) {
	w := world.Build(world.Tiny(3))
	vps := AtlasVPs(w.Top, randx.New(2))
	links := map[topology.LinkKey]bool{}
	for _, vp := range vps {
		for _, dst := range w.Top.ASesOfType(topology.Hypergiant) {
			LinksOnPath(links, Traceroute(w.Paths, vp.AS, dst))
		}
	}
	if len(links) == 0 {
		t.Fatal("campaign observed nothing")
	}
	for lk := range links {
		if !w.Top.HasLink(lk.Lo, lk.Hi) {
			t.Fatalf("observed nonexistent link %v", lk)
		}
	}
}

func TestCloudCampaignUncoversCloudPeerings(t *testing.T) {
	w := world.Build(world.Small(4))
	clouds := w.Top.ASesOfType(topology.Cloud)
	if len(clouds) == 0 {
		t.Skip("no clouds")
	}
	targets := w.Top.ASesOfType(topology.Eyeball)
	links := CloudCampaign(w.Paths, clouds[:1], targets)
	// Every direct cloud-eyeball peering of this cloud should appear:
	// the first hop of the traceroute to that eyeball.
	cloud := clouds[0]
	for _, nb := range w.Top.ASes[cloud].Neighbors {
		if w.Top.ASes[nb.ASN].Type != topology.Eyeball {
			continue
		}
		if !links[topology.MakeLinkKey(cloud, nb.ASN)] {
			t.Errorf("cloud campaign missed direct peering %d-%d", cloud, nb.ASN)
		}
	}
}

func TestPredictPathFailsWithoutLinks(t *testing.T) {
	w := world.Build(world.Tiny(5))
	// Observed topology: transit links only.
	obs := w.Top.Subgraph(func(l topology.LinkInfo) bool {
		return l.Kind == topology.TransitLink
	})
	hg := w.Top.ASesOfType(topology.Hypergiant)[0]
	eyeball := w.Top.ASesOfType(topology.Eyeball)[0]
	if got := bgp.ComputeRIB(obs, hg).PathFrom(eyeball); got != nil {
		t.Errorf("predicted %v with all peering hidden", got)
	}
	// On the full graph prediction matches the truth.
	truth := w.Paths.Path(eyeball, hg)
	if got := bgp.ComputeRIB(w.Top, hg).PathFrom(eyeball); !PathsEqual(got, truth) {
		t.Errorf("full-graph prediction %v != truth %v", got, truth)
	}
}

func TestUnionAndPathsEqual(t *testing.T) {
	a := map[topology.LinkKey]bool{topology.MakeLinkKey(1, 2): true}
	b := map[topology.LinkKey]bool{topology.MakeLinkKey(2, 3): true}
	u := Union(a, b)
	if len(u) != 2 {
		t.Fatalf("union size %d", len(u))
	}
	if PathsEqual([]topology.ASN{1, 2}, []topology.ASN{1, 3}) {
		t.Error("different paths compared equal")
	}
	if !PathsEqual(nil, nil) {
		t.Error("nil paths should be equal")
	}
}

// TestCollectorPlusCloudCoverage reproduces the §3.3.2 claim shape:
// cloud campaigns recover most of the giant peerings collectors miss.
func TestCollectorPlusCloudCoverage(t *testing.T) {
	w := world.Build(world.Small(6))
	col := &bgp.Collector{Peers: bgp.DefaultCollectorPeers(w.Top, randx.New(3))}
	obs := col.ObservedLinks(w.Paths)
	before := bgp.MeasureVisibility(w.Top, obs)

	giants := append(w.Top.ASesOfType(topology.Cloud), w.Top.ASesOfType(topology.Hypergiant)...)
	targets := w.Top.ASNs()
	cloudLinks := CloudCampaign(w.Paths, giants, targets)
	after := bgp.MeasureVisibility(w.Top, Union(obs, cloudLinks))

	if after.FracGiantPeeringsVisible() < 0.9 {
		t.Errorf("cloud campaign leaves giant-peering visibility at %.0f%%",
			after.FracGiantPeeringsVisible()*100)
	}
	if after.FracGiantPeeringsVisible() <= before.FracGiantPeeringsVisible() {
		t.Error("cloud campaign did not improve visibility")
	}
}
