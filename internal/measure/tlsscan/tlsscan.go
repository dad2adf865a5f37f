// Package tlsscan implements the paper's §3.2 approaches 1 and 2:
// Internet-wide TLS scans identify serving infrastructure by certificate
// ownership (including off-net caches living inside other networks — the
// Gigis et al. technique behind Figure 1b's server dots), and SNI scans
// identify which of that infrastructure serves a particular hostname.
package tlsscan

import (
	"sort"

	"itmap/internal/geo"
	"itmap/internal/services"
	"itmap/internal/topology"
)

// Server is one discovered serving prefix.
type Server struct {
	Prefix topology.PrefixID
	// HostAS is the network announcing the prefix.
	HostAS topology.ASN
	// CertOrg is the certificate subject organization (the owner name).
	CertOrg string
	// OwnerASN is the owner resolved from the certificate org.
	OwnerASN topology.ASN
	// City is the server's location (from the prefix geolocation the
	// scanner would use).
	City geo.City
}

// OffNet reports whether the server lives outside its owner's network.
func (s Server) OffNet() bool { return s.HostAS != s.OwnerASN }

// Scan is a completed Internet-wide TLS scan.
type Scan struct {
	Servers []Server
	// ByOwner groups discovered servers by certificate owner.
	ByOwner map[topology.ASN][]Server
}

// ScanAll performs a TLS handshake against every routable prefix and
// records certificate owners where servers answer.
func ScanAll(top *topology.Topology, cat *services.Catalog, prefixes []topology.PrefixID) *Scan {
	return ScanAtYear(top, cat, prefixes, services.LastOffNetYear)
}

// ScanAtYear scans the address space as it existed in a given year: sites
// deployed later do not answer. Re-running the scan per year reconstructs
// the off-net rollout longitudinally, as [25] did over seven years of scans.
func ScanAtYear(top *topology.Topology, cat *services.Catalog, prefixes []topology.PrefixID, year int) *Scan {
	sc := &Scan{ByOwner: map[topology.ASN][]Server{}}
	for _, p := range prefixes {
		if site, ok := cat.SiteAt(p); ok && site.DeployedYear > year {
			continue
		}
		ci, ok := cat.CertAt(p)
		if !ok {
			continue
		}
		host, _ := top.OwnerOf(p)
		srv := Server{
			Prefix:   p,
			HostAS:   host,
			CertOrg:  ci.Org,
			OwnerASN: ci.OwnerASN,
			City:     top.PrefixCity[p],
		}
		sc.Servers = append(sc.Servers, srv)
		sc.ByOwner[ci.OwnerASN] = append(sc.ByOwner[ci.OwnerASN], srv)
	}
	return sc
}

// OffNetHosts returns the host ASes where the owner has off-net servers,
// ascending — the "seven years in the life of hypergiants' off-nets" view.
func (sc *Scan) OffNetHosts(owner topology.ASN) []topology.ASN {
	seen := map[topology.ASN]bool{}
	for _, s := range sc.ByOwner[owner] {
		if s.OffNet() {
			seen[s.HostAS] = true
		}
	}
	out := make([]topology.ASN, 0, len(seen))
	for asn := range seen {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Locations returns the distinct cities hosting an owner's servers
// (Figure 1b's dots), sorted by name.
func (sc *Scan) Locations(owner topology.ASN) []geo.City {
	seen := map[string]geo.City{}
	for _, s := range sc.ByOwner[owner] {
		seen[s.City.Name] = s.City
	}
	var names []string
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]geo.City, 0, len(names))
	for _, n := range names {
		out = append(out, seen[n])
	}
	return out
}
