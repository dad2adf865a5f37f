// Package tracer models active path measurement: traceroutes from vantage
// points (the simulator's RIPE-Atlas/PlanetLab stand-ins in academic and
// volunteer eyeball networks), Reverse Traceroute, and measurement
// campaigns from cloud VMs — the §3.3.2 toolbox for uncovering links that
// route collectors miss.
package tracer

import (
	"sort"

	"itmap/internal/bgp"
	"itmap/internal/randx"
	"itmap/internal/topology"
)

// VantagePoint is a host able to issue traceroutes.
type VantagePoint struct {
	AS   topology.ASN
	Name string
}

// AtlasVPs returns a realistic distributed vantage set: every academic AS
// plus a broad sample of volunteer home networks — like RIPE Atlas, the
// majority of probes sit in eyeball ASes.
func AtlasVPs(top *topology.Topology, rng *randx.Source) []VantagePoint {
	var vps []VantagePoint
	for _, asn := range top.ASesOfType(topology.Academic) {
		vps = append(vps, VantagePoint{AS: asn, Name: top.ASes[asn].Name})
	}
	for _, asn := range top.ASesOfType(topology.Eyeball) {
		if rng.Bool(0.3) {
			vps = append(vps, VantagePoint{AS: asn, Name: top.ASes[asn].Name})
		}
	}
	sort.Slice(vps, func(i, j int) bool { return vps[i].AS < vps[j].AS })
	return vps
}

// Traceroute returns the AS-level forward path src→dst as a traceroute
// reveals it (the data-plane truth), or nil if unreachable.
func Traceroute(ap *bgp.AllPaths, src, dst topology.ASN) []topology.ASN {
	return ap.Path(src, dst)
}

// ReverseTraceroute returns the AS-level path dst→src, measurable from src
// with the Reverse Traceroute system [36] without controlling dst.
func ReverseTraceroute(ap *bgp.AllPaths, src, dst topology.ASN) []topology.ASN {
	return ap.Path(dst, src)
}

// LinksOnPath adds the path's adjacencies to the set. Pairs touching a
// Hole (a hop suppressed by ICMP rate limiting) are unobservable and
// skipped; fault-free paths never contain holes, so their harvest is
// unchanged.
func LinksOnPath(links map[topology.LinkKey]bool, path []topology.ASN) {
	for i := 0; i+1 < len(path); i++ {
		if path[i] == Hole || path[i+1] == Hole {
			continue
		}
		links[topology.MakeLinkKey(path[i], path[i+1])] = true
	}
}

// CloudCampaign measures from VMs inside the given cloud/hypergiant ASes
// out to every target, in both directions (forward traceroute plus Reverse
// Traceroute) — the §3.3.2 observation that measuring out from cloud VMs
// uncovers most cloud–user peering links.
func CloudCampaign(ap *bgp.AllPaths, cloudASes, targets []topology.ASN) map[topology.LinkKey]bool {
	links := map[topology.LinkKey]bool{}
	for _, c := range cloudASes {
		for _, dst := range targets {
			LinksOnPath(links, Traceroute(ap, c, dst))
			LinksOnPath(links, ReverseTraceroute(ap, c, dst))
		}
	}
	return links
}

// Union merges link sets.
func Union(sets ...map[topology.LinkKey]bool) map[topology.LinkKey]bool {
	out := map[topology.LinkKey]bool{}
	for _, s := range sets {
		for k := range s {
			out[k] = true
		}
	}
	return out
}

// PathsEqual reports whether two AS paths are identical.
func PathsEqual(a, b []topology.ASN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
