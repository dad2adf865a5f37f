// Package traffic is the simulator's ground truth for "relative activity
// levels" — the quantity the paper's ITM estimates. Demand follows a
// product model: volume(prefix, service) = users(prefix) × Zipf popularity ×
// per-prefix affinity jitter × diurnal(local time). Flows are assigned to
// serving sites through the same redirection machinery real clients use
// (off-net caches, ECS/resolver-based DNS mapping, anycast catchments,
// custom URLs), then routed over BGP paths to produce per-AS and per-link
// loads. Demand functions are pure (hash-based jitter), so the model needs
// no per-flow storage and any slice of it can be recomputed on demand.
package traffic

import (
	"math"
	"sync"

	"itmap/internal/bgp"
	"itmap/internal/dnssim"
	"itmap/internal/randx"
	"itmap/internal/services"
	"itmap/internal/topology"
	"itmap/internal/users"
)

// QueriesPerUserPerDay is the total DNS-visible interactions one user makes
// per day, split across services by popularity.
const QueriesPerUserPerDay = 120.0

// Model computes demand, assigns flows to sites, and feeds the DNS
// simulator. It implements dnssim.RateSource and dnssim.ChromiumSource.
type Model struct {
	Top   *topology.Topology
	Users *users.Model
	Cat   *services.Catalog
	Paths *bgp.AllPaths
	PR    *dnssim.PublicResolver

	seed uint64

	// TailShare is the fraction of total demand going to the long tail
	// of self-hosted destinations (enterprise/academic servers) outside
	// the popular-service catalog. It keeps the owner-concentration
	// curve realistic: the giants carry ~90%, not 100%.
	TailShare float64
	// TailFanout is how many distinct tail destinations each client AS
	// talks to.
	TailFanout int

	// CustomURLSpill is the share of custom-URL traffic a load balancer
	// sends to the second-closest site (capacity overflow); the §3.2.3
	// intuition is that the "vast majority" — not all — of such bytes
	// come from the optimal site.
	CustomURLSpill float64

	// ChromiumShare is the fraction of users running Chromium-based
	// browsers (whose interception probes reach the roots).
	ChromiumShare float64
	// ChromiumProbesPerUserDay is how many random-label probes one
	// Chromium user generates daily.
	ChromiumProbesPerUserDay float64

	// assignMemo caches assignments under memoMu: the matrix build
	// queries it from many goroutines at once.
	memoMu sync.RWMutex
	//itm:guardedby memoMu
	assignMemo map[assignKey][]SiteShare
}

type assignKey struct {
	svc services.ServiceID
	as  topology.ASN
}

// New builds a traffic model and wires it into the public resolver.
func New(top *topology.Topology, um *users.Model, cat *services.Catalog,
	ap *bgp.AllPaths, pr *dnssim.PublicResolver, seed int64) *Model {
	m := &Model{
		Top: top, Users: um, Cat: cat, Paths: ap, PR: pr,
		seed:                     uint64(seed),
		TailShare:                0.10,
		TailFanout:               5,
		CustomURLSpill:           0.12,
		ChromiumShare:            0.65,
		ChromiumProbesPerUserDay: 6,
		assignMemo:               map[assignKey][]SiteShare{},
	}
	pr.SetRateSource(m)
	return m
}

// demand is the per-prefix half of the demand law: what QueriesPerDay needs
// that does not depend on the service. The matrix build resolves it once per
// prefix and finishes it once per service; the client query rate is split
// the same way (Clients / QueryRate).
type demand struct {
	prefix topology.PrefixID
	users  float64
	// usage is the chance the prefix's population uses a given service at
	// all; tiny populations skip many services. This is what produces the
	// <1% traffic-weighted false-positive behaviour of cache probing
	// (§3.1.2): a small office prefix may query some popular domain yet
	// exchange no bytes with the reference CDN.
	usage float64
}

func (m *Model) demand(p topology.PrefixID) demand {
	return prefixDemand(p, m.Users.UsersIn(p))
}

// prefixDemand is the demand of prefix p, home to u users.
func prefixDemand(p topology.PrefixID, u float64) demand {
	return demand{prefix: p, users: u, usage: 1 - math.Exp(-u/300)}
}

// queriesPerDay finishes the demand law for one service — the one place it
// is written down; QueriesPerDay, DailyBytes, QueryRate and the matrix build
// all end here. weight is m.Cat.Popularity.Weight(svc.Rank). The per-(prefix,
// service) multiplier is zero if the population skips the service, else
// lognormal jitter around 1.
func (m *Model) queriesPerDay(d demand, svc *services.Service, weight float64) float64 {
	if d.users == 0 ||
		randx.HashFloat(m.seed, 0x05e, uint64(d.prefix), uint64(svc.ID)) > d.usage {
		return 0
	}
	return d.users * QueriesPerUserPerDay * weight *
		randx.HashLognormal(0, 0.5, m.seed, 0xaff, uint64(d.prefix), uint64(svc.ID))
}

// QueriesPerDay returns the prefix's daily DNS-visible interactions with a
// service: users × QueriesPerUserPerDay × the service's Zipf weight × the
// pair's affinity jitter. Callers pricing one prefix against many services
// go through demand and queriesPerDay instead of paying the per-prefix half
// per pair.
func (m *Model) QueriesPerDay(p topology.PrefixID, svc *services.Service) float64 {
	return m.queriesPerDay(m.demand(p), svc, m.Cat.Popularity.Weight(svc.Rank))
}

// BotFarmProb is the chance an enterprise prefix hosts automation
// (crawlers, scanners, monitoring agents) rather than people. Bots query
// around the clock — no diurnal signature — which is the §3.1.2 challenge
// of "finding Internet users (as opposed to bots and other non-human
// clients)" and the signal the bot filter keys on.
const BotFarmProb = 0.15

// IsBotPrefix reports whether a prefix's DNS activity comes from
// automation instead of people (ground truth; deterministic).
func (m *Model) IsBotPrefix(p topology.PrefixID) bool {
	owner, ok := m.Top.OwnerOf(p)
	if !ok || m.Top.ASes[owner].Type != topology.Enterprise {
		return false
	}
	return randx.HashBool(BotFarmProb, m.seed, 0xb07, uint64(p))
}

// PublicDNSOptOutProb is the chance a prefix's network blocks or simply
// never uses the public resolver (enterprise policy, ISP hijacking, etc.).
// Opted-out prefixes are invisible to cache probing no matter how active
// they are — the residual ~5% of CDN traffic the technique misses (§3.1.2).
const PublicDNSOptOutProb = 0.08

// UsesPublicResolver reports whether any client in the prefix ever talks
// to the public resolver.
func (m *Model) UsesPublicResolver(p topology.PrefixID) bool {
	return !randx.HashBool(PublicDNSOptOutProb, m.seed, 0x90d5, uint64(p))
}

// Clients implements dnssim.RateSource: the per-prefix half of the rates at
// which clients in scope that use the public resolver query any domain —
// where the prefix is, whether it uses the public resolver and how much of
// its DNS goes there, its demand's per-prefix half, whether it is a bot farm
// (automation does not sleep) and its activity curve. A sweep resolves it
// once per prefix and finishes it per domain (QueryRate).
func (m *Model) Clients(scope topology.PrefixID) dnssim.Clients {
	city, ok := m.Top.PrefixCity[scope]
	if !ok || !m.UsesPublicResolver(scope) {
		return dnssim.Clients{Scope: scope}
	}
	act := m.Users.Activity(scope)
	return dnssim.Clients{
		Scope:    scope,
		Share:    m.PR.AdoptionShare(city.Country),
		Usage:    prefixDemand(scope, act.Users).usage,
		Flat:     m.IsBotPrefix(scope),
		Activity: act,
	}
}

// QueryRate implements dnssim.RateSource: the time-invariant half of the
// rate at which c's clients query svc, the demand law finished for one
// service (queriesPerDay) and scaled to the public resolver's share.
func (m *Model) QueryRate(svc *services.Service, c dnssim.Clients) dnssim.QueryRate {
	if c.Share == 0 {
		return dnssim.QueryRate{}
	}
	d := demand{prefix: c.Scope, users: c.Activity.Users, usage: c.Usage}
	return dnssim.QueryRate{
		PerHour:  m.queriesPerDay(d, svc, m.Cat.Popularity.Weight(svc.Rank)) / 24 * c.Share,
		Flat:     c.Flat,
		Activity: c.Activity,
	}
}

// OutsourcesResolver reports whether an AS runs no resolver of its own and
// instead points clients at its transit provider's resolver (common for
// small networks). Root-log crawling then attributes those clients to the
// provider — the reason approach 2 tops out near 60% of CDN traffic.
func (m *Model) OutsourcesResolver(asn topology.ASN) bool {
	u := m.Users.ASUsers(asn)
	p := math.Exp(-u / 2e7) // only the largest ISPs reliably run their own
	return randx.HashBool(p, m.seed, 0x0475, uint64(asn))
}

// ChromiumRootQueries implements dnssim.ChromiumSource: the day's
// interception-probe load on the roots, by forwarding resolver. Queries
// from clients using the public resolver egress from the resolver's owner
// and are useless for locating eyeballs — the paper's resolver-visibility
// limitation.
func (m *Model) ChromiumRootQueries(day int) []dnssim.RootLogEntry {
	var out []dnssim.RootLogEntry
	viaPublic := 0.0
	for _, asn := range m.Top.ASNs() {
		a := m.Top.ASes[asn]
		u := m.Users.ASUsers(asn)
		if u == 0 {
			continue
		}
		probes := u * m.ChromiumShare * m.ChromiumProbesPerUserDay *
			randx.HashLognormal(0, 0.05, m.seed, 0xc42, uint64(day), uint64(asn))
		share := m.PR.AdoptionShare(a.Country)
		viaPublic += probes * share
		viaISP := probes * (1 - share)
		if viaISP <= 0 {
			continue
		}
		resolverAS := asn
		if m.OutsourcesResolver(asn) {
			if provs := a.Providers(); len(provs) > 0 {
				resolverAS = provs[0]
			}
		}
		rp, ok := dnssim.ResolverOfAS(m.Top, resolverAS)
		if !ok {
			continue
		}
		out = append(out, dnssim.RootLogEntry{
			ResolverPrefix: rp, ResolverASN: resolverAS, Queries: viaISP,
		})
	}
	if rp, ok := dnssim.ResolverOfAS(m.Top, m.PR.Owner); ok && viaPublic > 0 {
		out = append(out, dnssim.RootLogEntry{
			ResolverPrefix: rp, ResolverASN: m.PR.Owner, Queries: viaPublic,
		})
	}
	return out
}

// SiteShare is one component of a flow's ground-truth serving assignment.
type SiteShare struct {
	Site  *services.Site
	Share float64
}

// Assign returns where clients in clientAS are actually served for a
// service, with volume shares. Memoized; deterministic; safe for
// concurrent use (assign is pure, so racing goroutines compute — and
// cache — the same value).
func (m *Model) Assign(svc *services.Service, clientAS topology.ASN) []SiteShare {
	key := assignKey{svc.ID, clientAS}
	m.memoMu.RLock()
	got, ok := m.assignMemo[key]
	m.memoMu.RUnlock()
	if ok {
		return got
	}
	out := m.assign(svc, clientAS)
	m.memoMu.Lock()
	m.assignMemo[key] = out
	m.memoMu.Unlock()
	return out
}

func (m *Model) assign(svc *services.Service, clientAS topology.ASN) []SiteShare {
	clientCity := m.Top.PrimaryCity(clientAS)
	switch svc.Kind {
	case services.Anycast:
		site := m.Cat.AnycastCatchment(m.Paths, svc.Owner, clientAS)
		if site == nil {
			return nil
		}
		return []SiteShare{{Site: site, Share: 1}}
	case services.CustomURL:
		// Bulk bytes flow from the optimal site — the in-network cache
		// if present, else the closest site (§3.2.3: custom URLs
		// enable very precise redirection) — except for the load
		// balancer's overflow spill to the runner-up.
		if site, ok := m.Cat.OffNetFor(svc.Owner, clientAS); ok {
			spill := m.Cat.NearestOnNetSiteTo(svc.Owner, clientCity.Coord)
			if m.CustomURLSpill > 0 && spill != nil {
				return []SiteShare{
					{Site: site, Share: 1 - m.CustomURLSpill},
					{Site: spill, Share: m.CustomURLSpill},
				}
			}
			return []SiteShare{{Site: site, Share: 1}}
		}
		site, second := m.Cat.TwoNearestSitesTo(svc.Owner, clientCity.Coord)
		if site == nil {
			return nil
		}
		if m.CustomURLSpill > 0 && second != nil {
			return []SiteShare{
				{Site: site, Share: 1 - m.CustomURLSpill},
				{Site: second, Share: m.CustomURLSpill},
			}
		}
		return []SiteShare{{Site: site, Share: 1}}
	default: // DNS-based redirection
		if site, ok := m.Cat.OffNetFor(svc.Owner, clientAS); ok && svc.ECS {
			return []SiteShare{{Site: site, Share: 1}}
		}
		if svc.ECS {
			site := m.Cat.NearestSiteTo(svc.Owner, clientCity.Coord)
			if site == nil {
				return nil
			}
			return []SiteShare{{Site: site, Share: 1}}
		}
		// Without ECS the mapping depends on the resolver: ISP
		// resolvers sit with the client (and get the off-net), public
		// resolver users are mapped to the site nearest their PoP.
		country := m.Top.ASes[clientAS].Country
		pubShare := m.PR.AdoptionShare(country)
		var ispSite *services.Site
		if s, ok := m.Cat.OffNetFor(svc.Owner, clientAS); ok {
			ispSite = s
		} else {
			ispSite = m.Cat.NearestSiteTo(svc.Owner, clientCity.Coord)
		}
		var popSite *services.Site
		if a := m.Top.ASes[clientAS]; len(a.Prefixes) > 0 {
			if pop := m.PR.HomePoP(a.Prefixes[0]); pop != nil {
				popSite = m.Cat.NearestSiteTo(svc.Owner, pop.City.Coord)
			}
		}
		var out []SiteShare
		if ispSite != nil {
			out = append(out, SiteShare{Site: ispSite, Share: 1 - pubShare})
		}
		if popSite != nil {
			out = append(out, SiteShare{Site: popSite, Share: pubShare})
		}
		return out
	}
}
