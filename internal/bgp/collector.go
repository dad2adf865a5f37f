package bgp

import (
	"sort"

	"itmap/internal/randx"
	"itmap/internal/topology"
)

// Collector models a public BGP route collector (RouteViews/RIS-like): a set
// of vantage ASes export their full best-route tables to it. The union of
// AS-level links appearing on those paths is the "public topology" — which,
// as the paper's §3.3.1 stresses, misses most peering links of large content
// providers.
type Collector struct {
	// Peers are the ASes feeding the collector.
	Peers []topology.ASN
}

// DefaultCollectorPeers picks a realistic vantage set: every tier-1, about
// half of transit ASes, and a sprinkling of eyeball and academic networks.
// Real collectors are exactly this transit-biased.
func DefaultCollectorPeers(top *topology.Topology, rng *randx.Source) []topology.ASN {
	var peers []topology.ASN
	peers = append(peers, top.ASesOfType(topology.Tier1)...)
	for _, asn := range top.ASesOfType(topology.Transit) {
		if rng.Bool(0.5) {
			peers = append(peers, asn)
		}
	}
	for _, asn := range top.ASesOfType(topology.Eyeball) {
		if rng.Bool(0.03) {
			peers = append(peers, asn)
		}
	}
	for _, asn := range top.ASesOfType(topology.Academic) {
		if rng.Bool(0.25) {
			peers = append(peers, asn)
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	return peers
}

// ObservedLinks returns every undirected AS link appearing on any path from
// a collector peer to any origin, under the given (ground-truth) routing.
//
//itmlint:allow deadexport test support: the direct computation TestMRTExportRoundTripsObservedLinks checks the MRT path against, and the public view core, peering and tracer tests build on
func (c *Collector) ObservedLinks(ap *AllPaths) map[topology.LinkKey]bool {
	links := map[topology.LinkKey]bool{}
	top := ap.Topology()
	for _, origin := range top.ASNs() {
		rib := ap.RIBFor(origin)
		for _, p := range c.Peers {
			path := rib.PathFrom(p)
			for i := 0; i+1 < len(path); i++ {
				links[topology.MakeLinkKey(path[i], path[i+1])] = true
			}
		}
	}
	return links
}

// LinkVisibility summarizes how much of the true topology a link set covers,
// overall and for the peering links of giant (hypergiant/cloud) ASes — the
// paper's ">90% of peerings invisible" phenomenon.
type LinkVisibility struct {
	TotalLinks        int
	VisibleLinks      int
	GiantPeerings     int
	VisibleGiantPeers int
}

// FracVisible returns the overall fraction of links observed.
func (v LinkVisibility) FracVisible() float64 {
	if v.TotalLinks == 0 {
		return 0
	}
	return float64(v.VisibleLinks) / float64(v.TotalLinks)
}

// FracGiantPeeringsVisible returns the fraction of hypergiant/cloud peering
// links observed.
func (v LinkVisibility) FracGiantPeeringsVisible() float64 {
	if v.GiantPeerings == 0 {
		return 0
	}
	return float64(v.VisibleGiantPeers) / float64(v.GiantPeerings)
}

// MeasureVisibility compares an observed link set against the truth.
func MeasureVisibility(top *topology.Topology, observed map[topology.LinkKey]bool) LinkVisibility {
	var v LinkVisibility
	for _, l := range top.Links() {
		v.TotalLinks++
		vis := observed[topology.MakeLinkKey(l.A, l.B)]
		if vis {
			v.VisibleLinks++
		}
		ta, tb := top.ASes[l.A].Type, top.ASes[l.B].Type
		giant := ta == topology.Hypergiant || ta == topology.Cloud ||
			tb == topology.Hypergiant || tb == topology.Cloud
		eyeballSide := ta == topology.Eyeball || tb == topology.Eyeball ||
			ta == topology.Transit || tb == topology.Transit
		if giant && eyeballSide && l.RelAB == topology.RelPeer {
			v.GiantPeerings++
			if vis {
				v.VisibleGiantPeers++
			}
		}
	}
	return v
}
