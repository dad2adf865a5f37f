// Package resolvermap implements the §3.1.3 proposal to "deploy techniques
// to associate recursive resolvers with their clients (e.g., embedding
// measurements of the associations in popular pages)" — the Mao et al.
// technique. A popular page embeds a one-time hostname; the client's HTTP
// fetch reveals its address while the DNS lookup for the same token reveals
// its recursive resolver. Joining the two yields, per resolver, the
// distribution of client networks behind it.
//
// The association is what lets resolver-grained signals (root-log crawls)
// be re-attributed to client networks: without it, clients of outsourced or
// public resolvers are counted in the wrong AS or not at all.
package resolvermap

import (
	"itmap/internal/dnssim"
	"itmap/internal/order"
	"itmap/internal/topology"
	"itmap/internal/traffic"
	"itmap/internal/users"
)

// Association is the measured resolver→clients map.
type Association struct {
	// Clients[resolver prefix][client AS] is the number of associated
	// page views whose DNS arrived via that resolver.
	Clients map[topology.PrefixID]map[topology.ASN]float64
	// Views is the total number of instrumented page views.
	Views float64
}

// Config tunes the instrumentation campaign.
type Config struct {
	// ViewsPerUserPerDay is how many instrumented page views one user
	// generates (the beacon rides a popular page).
	ViewsPerUserPerDay float64
	// SampleRate is the fraction of views carrying the beacon.
	SampleRate float64
}

// DefaultConfig instruments a popular page lightly.
func DefaultConfig() Config {
	return Config{ViewsPerUserPerDay: 8, SampleRate: 0.02}
}

// Collect runs one day of the instrumentation campaign over every user
// prefix: views split between the ISP resolver path (possibly outsourced to
// the provider's resolver) and the public resolver, exactly as real client
// stub configuration would.
func Collect(top *topology.Topology, um *users.Model, tm *traffic.Model, pr *dnssim.PublicResolver, cfg Config) *Association {
	if cfg.ViewsPerUserPerDay <= 0 {
		cfg.ViewsPerUserPerDay = 8
	}
	if cfg.SampleRate <= 0 {
		cfg.SampleRate = 0.02
	}
	a := &Association{Clients: map[topology.PrefixID]map[topology.ASN]float64{}}
	add := func(resolver topology.PrefixID, client topology.ASN, views float64) {
		if views <= 0 {
			return
		}
		m := a.Clients[resolver]
		if m == nil {
			m = map[topology.ASN]float64{}
			a.Clients[resolver] = m
		}
		m[client] += views
		a.Views += views
	}
	publicResolverPrefix, havePublic := dnssim.ResolverOfAS(top, pr.Owner)
	for _, asn := range top.ASNs() {
		as := top.ASes[asn]
		u := um.ASUsers(asn)
		if u == 0 {
			continue
		}
		views := u * cfg.ViewsPerUserPerDay * cfg.SampleRate
		share := pr.AdoptionShare(as.Country)
		// Public-resolver path: the beacon's authoritative sees the
		// resolver egress; the HTTP fetch sees the client.
		if havePublic {
			add(publicResolverPrefix, asn, views*share)
		}
		// ISP path: the AS's own resolver, or the provider's when the
		// network outsources DNS.
		resolverAS := asn
		if tm.OutsourcesResolver(asn) {
			if provs := as.Providers(); len(provs) > 0 {
				resolverAS = provs[0]
			}
		}
		if rp, ok := dnssim.ResolverOfAS(top, resolverAS); ok {
			add(rp, asn, views*(1-share))
		}
	}
	return a
}

// AssociatedClientASes returns how many distinct client ASes are associated
// with at least one resolver.
func (a *Association) AssociatedClientASes() int {
	seen := map[topology.ASN]bool{}
	for _, m := range a.Clients {
		for asn := range m {
			seen[asn] = true
		}
	}
	return len(seen)
}

// EstimateAdoption measures each country's public-resolver adoption share
// from the association data: the fraction of a country's instrumented page
// views whose DNS arrived via the public resolver. This is the §3.1.3
// bias knob — "usage of Google Public DNS ... may be skewed" — measured
// rather than assumed.
func (a *Association) EstimateAdoption(top *topology.Topology, publicResolver topology.PrefixID) map[string]float64 {
	viaPublic := map[string]float64{}
	total := map[string]float64{}
	for _, rp := range order.Keys(a.Clients) {
		clients := a.Clients[rp]
		isPublic := rp == publicResolver
		for _, asn := range order.Keys(clients) {
			as := top.ASes[asn]
			if as == nil || as.Country == "ZZ" {
				continue
			}
			total[as.Country] += clients[asn]
			if isPublic {
				viaPublic[as.Country] += clients[asn]
			}
		}
	}
	out := map[string]float64{}
	for c, t := range total {
		if t > 0 {
			out[c] = viaPublic[c] / t
		}
	}
	return out
}

// Reattribute converts a resolver-grained activity map (e.g. a root-log
// crawl's per-resolver Chromium counts) into a client-AS-grained one by
// splitting each resolver's volume across its associated client networks.
// Resolvers without an association keep their naive resolver-AS attribution
// (attributed to owner of the resolver prefix).
func (a *Association) Reattribute(top *topology.Topology, byResolverPrefix map[topology.PrefixID]float64) map[topology.ASN]float64 {
	out := map[topology.ASN]float64{}
	for _, rp := range order.Keys(byResolverPrefix) {
		volume := byResolverPrefix[rp]
		m := a.Clients[rp]
		if len(m) == 0 {
			if owner, ok := top.OwnerOf(rp); ok {
				out[owner] += volume
			}
			continue
		}
		total := order.SumValues(m)
		for _, client := range order.Keys(m) {
			out[client] += volume * m[client] / total
		}
	}
	return out
}
