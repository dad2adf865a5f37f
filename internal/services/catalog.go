// Package services models the popular services the paper's ITM component 2
// targets: who owns them, where they are deployed (on-net PoPs and off-net
// caches inside eyeball networks), how they redirect users to servers
// (DNS-based with or without ECS, anycast, custom URLs), their TLS
// certificates, and their popularity ranks. One hypergiant is designated the
// reference CDN, playing the role Microsoft's CDN logs play in the paper:
// ground truth to validate client-discovery techniques against.
package services

import (
	"fmt"
	"sort"
	"sync"

	"itmap/internal/geo"
	"itmap/internal/randx"
	"itmap/internal/topology"
)

// ServiceID identifies a service in the catalog.
type ServiceID int

// RedirectionKind is how a service maps users to serving sites (§3.2).
type RedirectionKind uint8

// Redirection mechanisms.
const (
	// DNSUnicast: the authoritative DNS returns a nearby unicast server
	// (nearest to the ECS prefix if supported, else to the resolver).
	DNSUnicast RedirectionKind = iota
	// Anycast: one prefix announced from many sites; BGP picks the site.
	Anycast
	// CustomURL: DNS bootstraps to any site; bulk bytes then flow from a
	// per-client custom URL pointing at the optimal site (typical for
	// video-on-demand; see §3.2.3).
	CustomURL
)

// String names the redirection kind.
func (k RedirectionKind) String() string {
	switch k {
	case DNSUnicast:
		return "dns-unicast"
	case Anycast:
		return "anycast"
	case CustomURL:
		return "custom-url"
	default:
		return fmt.Sprintf("redirection(%d)", uint8(k))
	}
}

// Service is one popular service.
type Service struct {
	ID     ServiceID
	Rank   int // 1 = most popular
	Name   string
	Domain string
	Owner  topology.ASN
	Kind   RedirectionKind
	// ECS reports whether the service's authoritative DNS honors EDNS0
	// Client Subnet. Only meaningful for DNS-based redirection.
	ECS bool
	// TTLSeconds is the DNS record TTL, the granularity at which cache
	// probing can observe activity.
	TTLSeconds int
	// BytesPerQuery scales traffic volume per DNS-visible interaction;
	// video services are much heavier than the rest.
	BytesPerQuery float64
}

// Site is one serving location of an owner.
type Site struct {
	Owner    topology.ASN
	HostAS   topology.ASN // == Owner for on-net sites
	Facility topology.FacilityID
	City     geo.City
	// Prefix is the /24 the site's servers answer from.
	Prefix topology.PrefixID
	// DeployedYear is when the site went live. Hypergiants rolled
	// off-nets out over years, biggest host networks first — the
	// longitudinal story TLS scans reconstruct ("seven years in the
	// life of hypergiants' off-nets"). On-net sites predate the window.
	DeployedYear int
}

// OffNet reports whether the site is an off-net cache (hosted inside
// another network).
func (s *Site) OffNet() bool { return s.HostAS != s.Owner }

// Deployment is an owner's global serving footprint.
type Deployment struct {
	Owner topology.ASN
	Sites []*Site
	// OffNetByHost indexes off-net sites by host AS.
	OffNetByHost map[topology.ASN]*Site
	// AnycastPrefix is the owner's anycast prefix (set iff the owner has
	// anycast services).
	AnycastPrefix topology.PrefixID
	HasAnycast    bool
	// AnycastSites are the on-net sites announcing the anycast prefix:
	// the region-hub deployments (real anycast services announce from
	// dozens of sites, not from every edge cache).
	AnycastSites []*Site
}

// OnNetSites returns the owner-hosted sites.
func (d *Deployment) OnNetSites() []*Site {
	var out []*Site
	for _, s := range d.Sites {
		if !s.OffNet() {
			out = append(out, s)
		}
	}
	return out
}

// Config tunes catalog generation.
type Config struct {
	// NServices is the catalog size (default 60).
	NServices int
	// ZipfAlpha is the popularity exponent across ranks.
	ZipfAlpha float64
	// OffNetMinSubscribersK: eyeballs at least this large may host
	// off-net caches.
	OffNetMinSubscribersK float64
	// OffNetProb is the per-(hypergiant, eligible eyeball) deployment
	// probability for off-net caches.
	OffNetProb float64
	// TopECS forces exactly this many of the top-20 services to support
	// ECS (the paper reports 15/20).
	TopECS int
}

// DefaultConfig returns the standard catalog parameters.
func DefaultConfig() Config {
	return Config{
		NServices:             60,
		ZipfAlpha:             1.15,
		OffNetMinSubscribersK: 2500,
		OffNetProb:            0.7,
		TopECS:                15,
	}
}

// Catalog holds every service and deployment in the world.
type Catalog struct {
	top      *topology.Topology
	Services []*Service // index = int(ID); sorted by rank
	// Deployments by owner ASN.
	Deployments map[topology.ASN]*Deployment
	// ReferenceCDN is the hypergiant whose "server logs" (ground-truth
	// traffic) validate client-discovery techniques (the Microsoft role).
	ReferenceCDN topology.ASN
	// Popularity is the Zipf popularity law over ranks.
	Popularity *randx.Zipf

	byDomain     map[string]*Service
	siteByPrefix map[topology.PrefixID]*Site
	anycastOwner map[topology.PrefixID]topology.ASN

	nearestMu sync.RWMutex
	//itm:guardedby nearestMu
	nearest map[nearestKey]*Site // NearestSiteTo's memo
}

type nearestKey struct {
	owner topology.ASN
	at    geo.Coord
}

// ByDomain returns the service registered under a domain.
func (c *Catalog) ByDomain(domain string) (*Service, bool) {
	s, ok := c.byDomain[domain]
	return s, ok
}

// SiteAt returns the serving site using a prefix, if any. This is what a
// TLS scan of the prefix reveals (cert ownership); the owner's name is the
// certificate's subject organization.
func (c *Catalog) SiteAt(p topology.PrefixID) (*Site, bool) {
	s, ok := c.siteByPrefix[p]
	return s, ok
}

// ECSDomains returns the domains of ECS-supporting DNS-redirected services,
// most popular first — the domain list cache probing iterates over.
func (c *Catalog) ECSDomains() []string {
	var out []string
	for _, s := range c.Services {
		if s.ECS && s.Kind != Anycast {
			out = append(out, s.Domain)
		}
	}
	return out
}

// Owners returns every AS owning at least one service, ascending.
func (c *Catalog) Owners() []topology.ASN {
	seen := map[topology.ASN]bool{}
	var out []topology.ASN
	for _, s := range c.Services {
		if !seen[s.Owner] {
			seen[s.Owner] = true
			out = append(out, s.Owner)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// The off-net rollout window (inclusive), mirroring the seven-year study
// window of [25].
const (
	FirstOffNetYear = 2014
	LastOffNetYear  = 2021
)

// Build generates the service catalog and deployments for a topology.
func Build(top *topology.Topology, cfg Config, rng *randx.Source) *Catalog {
	if cfg.NServices <= 0 {
		cfg.NServices = 60
	}
	hgs := top.ASesOfType(topology.Hypergiant)
	clouds := top.ASesOfType(topology.Cloud)
	if len(hgs) == 0 {
		panic("services: topology has no hypergiants")
	}
	c := &Catalog{
		top:          top,
		Deployments:  map[topology.ASN]*Deployment{},
		Popularity:   randx.NewZipf(cfg.NServices, cfg.ZipfAlpha),
		byDomain:     map[string]*Service{},
		siteByPrefix: map[topology.PrefixID]*Site{},
		anycastOwner: map[topology.PrefixID]topology.ASN{},
		nearest:      map[nearestKey]*Site{},
	}
	c.ReferenceCDN = hgs[len(hgs)-1]
	if len(hgs) >= 3 {
		c.ReferenceCDN = hgs[2] // "MegaCDN" by generator naming
	}

	// --- Deployments --------------------------------------------------
	// Hypergiants: on-net sites at every facility they occupy, plus
	// off-net caches in large eyeballs. Clouds: on-net sites only.
	eyeballs := top.ASesOfType(topology.Eyeball)
	for _, owner := range append(append([]topology.ASN{}, hgs...), clouds...) {
		a := top.ASes[owner]
		d := &Deployment{Owner: owner, OffNetByHost: map[topology.ASN]*Site{}}
		for _, f := range a.Facilities {
			fac := top.Facility(f)
			pfx := top.AllocPrefixes(owner, 1, fac.City)[0]
			site := &Site{Owner: owner, HostAS: owner, Facility: f, City: fac.City, Prefix: pfx}
			d.Sites = append(d.Sites, site)
			c.siteByPrefix[pfx] = site
		}
		if a.Type == topology.Hypergiant {
			// Rank eligible hosts by size: the biggest ISPs got
			// their caches first.
			var eligible []topology.ASN
			for _, e := range eyeballs {
				if top.ASes[e].SubscribersK >= cfg.OffNetMinSubscribersK {
					eligible = append(eligible, e)
				}
			}
			sort.Slice(eligible, func(i, j int) bool {
				si, sj := top.ASes[eligible[i]].SubscribersK, top.ASes[eligible[j]].SubscribersK
				if si != sj {
					return si > sj
				}
				return eligible[i] < eligible[j]
			})
			for rank, e := range eligible {
				if !rng.Bool(cfg.OffNetProb) {
					continue
				}
				city := top.PrimaryCity(e)
				pfx := top.AllocPrefixes(e, 1, city)[0]
				site := &Site{Owner: owner, HostAS: e, Facility: -1, City: city, Prefix: pfx}
				// Deployment year by size rank with per-host
				// jitter (hash-based so the rng stream and
				// therefore the rest of the world are
				// unaffected).
				frac := float64(rank) / float64(max(len(eligible)-1, 1))
				j := randx.HashFloat(uint64(owner), 0x0ff, uint64(e)) * 0.25
				year := FirstOffNetYear + int((frac*0.85+j)*float64(LastOffNetYear-FirstOffNetYear))
				if year > LastOffNetYear {
					year = LastOffNetYear
				}
				site.DeployedYear = year
				d.Sites = append(d.Sites, site)
				d.OffNetByHost[e] = site
				c.siteByPrefix[pfx] = site
			}
		}
		c.Deployments[owner] = d
	}

	// --- Services ------------------------------------------------------
	names := []struct {
		name, domain string
		kind         RedirectionKind
	}{
		{"Vortex Search", "search.vortex.example", DNSUnicast},
		{"FaceSpace", "www.facespace.example", DNSUnicast},
		{"StreamFlix VOD", "vid.streamflix.example", CustomURL},
		{"Vortex Video", "tube.vortex.example", CustomURL},
		{"MegaCDN Edge", "edge.megacdn.example", DNSUnicast},
		{"ChatterBox", "chat.facespace.example", Anycast},
		{"ShopGiant", "www.shopgiant.example", DNSUnicast},
		{"ClipShare", "clips.clipshare.example", CustomURL},
		{"EdgeWave DNS", "cdn.edgewave.example", Anycast},
		{"MetaCast Live", "live.metacast.example", DNSUnicast},
	}
	for rank := 1; rank <= cfg.NServices; rank++ {
		id := ServiceID(rank - 1)
		var svc *Service
		if rank <= len(names) {
			n := names[rank-1]
			// Flagship services belong to the correspondingly named
			// hypergiant where one exists.
			owner := hgs[(rank-1)%len(hgs)]
			svc = &Service{
				ID: id, Rank: rank, Name: n.name, Domain: n.domain,
				Owner: owner, Kind: n.kind,
			}
		} else {
			// Long tail: mostly cloud-hosted, some hypergiant.
			owner := hgs[rng.Intn(len(hgs))]
			if len(clouds) > 0 && rng.Bool(0.7) {
				owner = clouds[rng.Intn(len(clouds))]
			}
			kind := DNSUnicast
			switch {
			case rng.Bool(0.12):
				kind = Anycast
			case rng.Bool(0.1):
				kind = CustomURL
			}
			svc = &Service{
				ID: id, Rank: rank,
				Name:   fmt.Sprintf("Service-%03d", rank),
				Domain: fmt.Sprintf("svc%03d.example", rank),
				Owner:  owner, Kind: kind,
			}
		}
		// MegaCDN Edge must be owned by the reference CDN.
		if svc.Domain == "edge.megacdn.example" {
			svc.Owner = c.ReferenceCDN
		}
		svc.TTLSeconds = []int{30, 60, 120, 300}[rng.Intn(4)]
		svc.BytesPerQuery = 40e3 * rng.Lognormal(0, 0.4)
		if svc.Kind == CustomURL {
			svc.BytesPerQuery *= 60 // video heavy
		}
		c.Services = append(c.Services, svc)
		c.byDomain[svc.Domain] = svc
	}

	// --- ECS support ----------------------------------------------------
	// Exactly TopECS of the top 20 honor ECS (paper: 15 of 20). Anycast
	// services never do (no DNS redirection to localize); the remaining
	// non-ECS slots go to the lightest top-20 ranks, mirroring the
	// paper's observation that ECS services carry 91% of top-20 traffic.
	for _, svc := range c.Services {
		switch {
		case svc.Kind == Anycast:
			svc.ECS = false
		case svc.Rank <= 20:
			svc.ECS = true
		default:
			svc.ECS = rng.Bool(0.45)
		}
	}
	nonECS := 0
	for _, svc := range c.Services[:min(20, len(c.Services))] {
		if svc.Kind == Anycast {
			nonECS++
		}
	}
	for rank := 20; rank >= 1 && nonECS < 20-cfg.TopECS; rank-- {
		svc := c.Services[rank-1]
		if svc.Kind != Anycast && svc.ECS {
			svc.ECS = false
			nonECS++
		}
	}

	// Anycast prefixes for owners with anycast services.
	hubCities := map[string]bool{}
	for _, r := range geo.Regions() {
		hubCities[geo.RegionHub(r).Name] = true
	}
	for _, s := range c.Services {
		if s.Kind != Anycast {
			continue
		}
		d := c.Deployments[s.Owner]
		if !d.HasAnycast {
			city := top.PrimaryCity(s.Owner)
			pfx := top.AllocPrefixes(s.Owner, 1, city)[0]
			d.AnycastPrefix = pfx
			d.HasAnycast = true
			c.anycastOwner[pfx] = s.Owner
			for _, site := range d.OnNetSites() {
				if hubCities[site.City.Name] {
					d.AnycastSites = append(d.AnycastSites, site)
				}
			}
			if len(d.AnycastSites) == 0 {
				d.AnycastSites = d.OnNetSites()
			}
		}
	}
	return c
}
