package services

import (
	"itmap/internal/bgp"
	"itmap/internal/geo"
	"itmap/internal/topology"
)

// NearestSiteTo returns the owner's serving site nearest to a location
// (considering both on-net and off-net sites), or nil if the owner has no
// deployment. Deterministic: distance ties break on lower site prefix.
// Memoized per ⟨owner, location⟩ — callers ask about the same few dozen
// cities for every prefix, AS and query, and deployments do not change once
// Build returns. Safe for concurrent use.
func (c *Catalog) NearestSiteTo(owner topology.ASN, at geo.Coord) *Site {
	key := nearestKey{owner, at}
	c.nearestMu.RLock()
	site, ok := c.nearest[key]
	c.nearestMu.RUnlock()
	if ok {
		return site
	}
	if d := c.Deployments[owner]; d != nil {
		site = nearestOf(d.Sites, at)
	}
	c.nearestMu.Lock()
	c.nearest[key] = site
	c.nearestMu.Unlock()
	return site
}

// NearestOnNetSiteTo is NearestSiteTo restricted to owner-hosted sites.
func (c *Catalog) NearestOnNetSiteTo(owner topology.ASN, at geo.Coord) *Site {
	d := c.Deployments[owner]
	if d == nil {
		return nil
	}
	return nearestOf(onNet(d.Sites), at)
}

// NearestAnycastSiteTo is the closest site announcing the owner's anycast
// prefix — the "closest serving site" of the paper's anycast analysis.
func (c *Catalog) NearestAnycastSiteTo(owner topology.ASN, at geo.Coord) *Site {
	d := c.Deployments[owner]
	if d == nil {
		return nil
	}
	sites := d.AnycastSites
	if len(sites) == 0 {
		sites = onNet(d.Sites)
	}
	return nearestOf(sites, at)
}

func onNet(sites []*Site) []*Site {
	var out []*Site
	for _, s := range sites {
		if !s.OffNet() {
			out = append(out, s)
		}
	}
	return out
}

func nearestOf(sites []*Site, at geo.Coord) *Site {
	var best *Site
	bestDist := 0.0
	for _, s := range sites {
		dist := geo.DistanceKm(at, s.City.Coord)
		if best == nil || dist < bestDist ||
			(dist == bestDist && s.Prefix < best.Prefix) {
			best, bestDist = s, dist
		}
	}
	return best
}

// TwoNearestSitesTo returns the owner's two closest sites to a location
// (second is nil with fewer than two sites). Load balancers spill overflow
// to the runner-up, which is what makes custom-URL redirection *almost*
// always optimal (§3.2.3).
func (c *Catalog) TwoNearestSitesTo(owner topology.ASN, at geo.Coord) (*Site, *Site) {
	d := c.Deployments[owner]
	if d == nil || len(d.Sites) == 0 {
		return nil, nil
	}
	var best, second *Site
	bestDist, secondDist := 0.0, 0.0
	for _, s := range d.Sites {
		dist := geo.DistanceKm(at, s.City.Coord)
		switch {
		case best == nil || dist < bestDist || (dist == bestDist && s.Prefix < best.Prefix):
			second, secondDist = best, bestDist
			best, bestDist = s, dist
		case second == nil || dist < secondDist || (dist == secondDist && s.Prefix < second.Prefix):
			second, secondDist = s, dist
		}
	}
	return best, second
}

// OffNetFor returns the owner's off-net cache inside hostAS, if deployed.
func (c *Catalog) OffNetFor(owner, hostAS topology.ASN) (*Site, bool) {
	d := c.Deployments[owner]
	if d == nil {
		return nil, false
	}
	s, ok := d.OffNetByHost[hostAS]
	return s, ok
}

// AnycastCatchment returns the on-net site where traffic from clientAS
// lands for the owner's anycast prefix. BGP routes the client's traffic to
// the owner AS; the landing site is the owner site nearest to the facility
// where the traffic enters the owner's network (ingress-based catchments).
// Returns nil if the client has no route.
func (c *Catalog) AnycastCatchment(ap *bgp.AllPaths, owner, clientAS topology.ASN) *Site {
	top := c.top
	if clientAS == owner {
		return c.NearestAnycastSiteTo(owner, top.PrimaryCity(owner).Coord)
	}
	path := ap.Path(clientAS, owner)
	if len(path) < 2 {
		return nil
	}
	ingressFrom := path[len(path)-2] // last AS before the owner
	ownerAS := top.ASes[owner]
	var fac topology.FacilityID = -1
	for _, nb := range ownerAS.Neighbors {
		if nb.ASN == ingressFrom {
			fac = nb.Facility
			break
		}
	}
	at := top.PrimaryCity(ingressFrom).Coord
	if fac >= 0 {
		at = top.Facility(fac).City.Coord
	}
	return c.NearestAnycastSiteTo(owner, at)
}

// CertInfo is what a TLS handshake with a serving IP reveals: the resource
// owner (certificate subject organization) — the signal behind the paper's
// §3.2 approach 1 (identifying infrastructure via TLS scans).
type CertInfo struct {
	// Org is the certificate's subject organization: the owner's name.
	Org string
	// OwnerASN is the owning network (not directly in a real cert, but
	// recoverable from Org; exposed for convenience).
	OwnerASN topology.ASN
}

// CertAt performs a simulated TLS handshake against an address in prefix p.
// It returns the certificate info and true if a server answers, or false
// for non-serving address space.
func (c *Catalog) CertAt(p topology.PrefixID) (CertInfo, bool) {
	site, ok := c.siteByPrefix[p]
	if !ok {
		if owner, isAnycast := c.anycastOwner[p]; isAnycast {
			return CertInfo{Org: c.top.ASes[owner].Name, OwnerASN: owner}, true
		}
		return CertInfo{}, false
	}
	return CertInfo{Org: c.top.ASes[site.Owner].Name, OwnerASN: site.Owner}, true
}

// ServesSNI reports whether an address in prefix p answers a TLS handshake
// for the given hostname — the §3.2 approach 2 (SNI scans for service
// footprints). A site serves a hostname iff the site owner owns the service.
//
//itmlint:allow deadexport the simulator's SNI handshake surface (§3.2 approach 2): tlsscan's TestSNIFootprint scans through it
func (c *Catalog) ServesSNI(p topology.PrefixID, domain string) bool {
	svc, ok := c.byDomain[domain]
	if !ok {
		return false
	}
	if owner, isAnycast := c.anycastOwner[p]; isAnycast {
		return owner == svc.Owner && svc.Kind == Anycast
	}
	site, ok := c.siteByPrefix[p]
	if !ok {
		return false
	}
	return site.Owner == svc.Owner
}
