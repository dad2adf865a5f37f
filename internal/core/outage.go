package core

import (
	"slices"

	"itmap/internal/geo"
	"itmap/internal/order"
	"itmap/internal/topology"
)

// OutageReport is the map-driven answer to "what would an outage of this
// network mean?" — the §2.1 use case: which popular services are affected,
// what share of activity, and where traffic could be served instead.
type OutageReport struct {
	AS      topology.ASN
	Name    string
	Country string
	// ActivityShare is the AS's share of the map's estimated activity.
	ActivityShare float64
	// ActivePrefixes counts the AS's prefixes with detected clients.
	ActivePrefixes int
	// AffectedServices lists domains whose measured mapping serves this
	// AS's users (they lose their usual serving site).
	AffectedServices []string
	// HostedServers counts serving prefixes (on-net or off-net caches)
	// inside the AS that disappear with it.
	HostedServers int
	// Fallbacks maps each affected domain to the nearest surviving
	// serving prefix the map predicts users would fall back to.
	Fallbacks map[string]topology.PrefixID
}

// OutageImpact assesses an outage of the given AS using only the map's own
// (measured) components.
func (m *TrafficMap) OutageImpact(asn topology.ASN) OutageReport {
	a := m.Top.ASes[asn]
	rep := OutageReport{
		AS:        asn,
		Fallbacks: map[string]topology.PrefixID{},
	}
	if a == nil {
		return rep
	}
	rep.Name = a.Name
	rep.Country = a.Country
	rep.ActivityShare = m.ActivityShare(asn)
	for _, p := range a.Prefixes {
		if _, ok := slices.BinarySearch(m.ActivePrefixes, p); ok {
			rep.ActivePrefixes++
		}
	}

	// Servers inside the AS (from the TLS scan).
	lostPrefixes := map[topology.PrefixID]bool{}
	if m.Scan != nil {
		for _, srv := range m.Scan.Servers {
			if srv.HostAS == asn {
				rep.HostedServers++
				lostPrefixes[srv.Prefix] = true
			}
		}
	}

	// Services whose measured mapping serves this AS, with fallbacks. The
	// mappings are in canonical order, by domain then client AS, so the
	// affected services come out sorted; should an imported document list
	// a domain twice, its first entry picks the prefix fallbackFor avoids.
	for _, mp := range m.Mappings {
		if topology.ASN(mp.ClientAS) != asn || slices.Contains(rep.AffectedServices, mp.Domain) {
			continue
		}
		rep.AffectedServices = append(rep.AffectedServices, mp.Domain)
		if fb, ok := m.fallbackFor(mp.Domain, asn, mp.Serving, lostPrefixes); ok {
			rep.Fallbacks[mp.Domain] = fb
		}
	}
	return rep
}

// fallbackFor finds the nearest surviving serving prefix for a domain,
// using the map's own footprint knowledge (SNI scan results through the
// measured mapping's owner).
func (m *TrafficMap) fallbackFor(domain string, clientAS topology.ASN, current topology.PrefixID, lost map[topology.PrefixID]bool) (topology.PrefixID, bool) {
	if m.Scan == nil {
		return 0, false
	}
	// Identify the owner from the scan record of the current server.
	var owner topology.ASN
	found := false
	for _, srv := range m.Scan.Servers {
		if srv.Prefix == current {
			owner = srv.OwnerASN
			found = true
			break
		}
	}
	if !found {
		return 0, false
	}
	at := m.Top.PrimaryCity(clientAS).Coord
	best := topology.PrefixID(0)
	bestDist := 0.0
	ok := false
	for _, srv := range m.Scan.ByOwner[owner] {
		if srv.Prefix == current || lost[srv.Prefix] || srv.HostAS == clientAS {
			continue
		}
		d := geo.DistanceKm(at, srv.City.Coord)
		if !ok || d < bestDist || (d == bestDist && srv.Prefix < best) {
			best, bestDist, ok = srv.Prefix, d, true
		}
	}
	return best, ok
}

// CountryImpact aggregates outage impact over every active AS registered in
// a country — the ⟨region, AS⟩ view of §2.1.
type CountryImpact struct {
	Country string
	// ActivityShare is the country's share of estimated activity.
	ActivityShare float64
	// ActiveASes is how many of the country's ASes show activity.
	ActiveASes int
}

// CountryImpactOf sums per-AS activity for a country code.
func (m *TrafficMap) CountryImpactOf(code string) CountryImpact {
	ci := CountryImpact{Country: code}
	var total, mine float64
	for _, asn := range order.Keys(m.ASActivity) {
		v := m.ASActivity[asn]
		total += v
		if a := m.Top.ASes[asn]; a != nil && a.Country == code {
			mine += v
			ci.ActiveASes++
		}
	}
	if total > 0 {
		ci.ActivityShare = mine / total
	}
	return ci
}
