// Package core assembles measurement outputs into the Internet traffic map
// — the paper's primary contribution — and provides the analyses the map
// enables: outage impact assessment, technique combination, and validation
// against ground truth.
package core

import (
	"sort"
	"strings"

	"itmap/internal/dnssim"
	"itmap/internal/geo"
	"itmap/internal/measure/cacheprobe"
	"itmap/internal/measure/rootlogs"
	"itmap/internal/measure/tlsscan"
	"itmap/internal/order"
	"itmap/internal/topology"
)

// ActivitySource records which techniques saw an AS.
type ActivitySource uint8

// Activity sources (bitmask).
const (
	FromCacheProbe ActivitySource = 1 << iota
	FromRootLogs
)

// Coverage grades the freshness of a prefix's activity signal when the
// sweep behind it ran against a faulty substrate.
type Coverage uint8

// Coverage grades. The zero value means the builder had no sweep stats —
// the pre-fault behaviour — so fault-free maps carry no annotations.
const (
	// CoverageUnknown: no resilient sweep ran; nothing to grade.
	CoverageUnknown Coverage = iota
	// CoverageProbedOK: the sweep got a definitive answer this window.
	CoverageProbedOK
	// CoverageGaveUp: every probe died on the retry budget; the cell's
	// signal is absence-of-evidence, not evidence-of-absence.
	CoverageGaveUp
	// CoverageStale: the PoP's breaker kept the target unprobed; any
	// value shown is carried over, not measured.
	CoverageStale
)

// String names the grade for reports.
func (c Coverage) String() string {
	switch c {
	case CoverageProbedOK:
		return "probed-ok"
	case CoverageGaveUp:
		return "gave-up"
	case CoverageStale:
		return "stale"
	}
	return "unknown"
}

// UsersComponent answers the map's first question: where are users, and
// what are their relative activity levels?
type UsersComponent struct {
	// ActivePrefixes marks prefixes where cache probing found clients.
	ActivePrefixes map[topology.PrefixID]bool
	// PrefixHitRate is the cache-probing hit rate per prefix (where a
	// hit-rate campaign ran).
	PrefixHitRate map[topology.PrefixID]float64
	// ASActivity is the combined relative-activity estimate per AS, in
	// root-log-query-equivalent units.
	ASActivity map[topology.ASN]float64
	// Sources says which techniques contributed per AS.
	Sources map[topology.ASN]ActivitySource
	// Coverage grades each swept prefix's signal (empty without sweep
	// stats — the map degrades gracefully instead of silently).
	Coverage map[topology.PrefixID]Coverage
	// ASConfidence is the fraction of an AS's swept prefixes that were
	// probed-ok (1 everywhere on a clean substrate; only ASes with swept
	// prefixes appear).
	ASConfidence map[topology.ASN]float64
}

// MappingKey indexes the user→host mapping component.
type MappingKey struct {
	Domain   string
	ClientAS topology.ASN
}

// Compare orders keys by domain then client AS, for deterministic
// iteration over the mapping component.
func (k MappingKey) Compare(o MappingKey) int {
	if k.Domain != o.Domain {
		return strings.Compare(k.Domain, o.Domain)
	}
	return int(k.ClientAS) - int(o.ClientAS)
}

// ServicesComponent answers the second question: where are services hosted,
// and what is the mapping from users to hosts?
type ServicesComponent struct {
	// Scan is the TLS/SNI-scan view of serving infrastructure.
	Scan *tlsscan.Scan
	// Mapping is the measured client-AS→serving-prefix mapping per
	// domain, from ECS queries.
	Mapping map[MappingKey]topology.PrefixID
}

// RoutesComponent answers the third question: what routes are commonly used
// between services and users?
type RoutesComponent struct {
	// Observed is the public-view topology (route collectors +
	// traceroute campaigns).
	Observed *topology.Topology
	// Augmented adds predicted/measured extra links (cloud campaigns,
	// peering recommendations).
	Augmented *topology.Topology
}

// TrafficMap is the assembled Internet traffic map.
type TrafficMap struct {
	Top      *topology.Topology
	Users    UsersComponent
	Services ServicesComponent
	Routes   RoutesComponent
}

// BuildInputs carries every measurement output the map combines.
type BuildInputs struct {
	Top *topology.Topology
	// Discovery and HitRates come from cache probing.
	Discovery *cacheprobe.Discovery
	HitRates  *cacheprobe.HitRates
	// Sweep carries the resilient prober's per-target bookkeeping; when
	// set, the builder annotates coverage and per-AS confidence. Nil (the
	// naive prober) leaves the map exactly as before.
	Sweep *cacheprobe.SweepStats
	// RootCrawl comes from root-log crawling.
	RootCrawl *rootlogs.Crawl
	// PublicResolverOwner is excluded from resolver-based attribution.
	PublicResolverOwner topology.ASN
	// Scan is the TLS/SNI scan of the address space.
	Scan *tlsscan.Scan
	// Auth and PR let the builder measure user→host mappings with ECS
	// queries (public DNS interfaces only).
	Auth *dnssim.Authoritative
	PR   *dnssim.PublicResolver
	// MapDomains are the ECS domains to build mappings for.
	MapDomains []string
	// Observed/Augmented route topologies.
	Observed  *topology.Topology
	Augmented *topology.Topology
}

// BuildMap combines the measurement outputs into a traffic map, including
// the §3.1.3 technique combination: root-log activity (a volume proxy at AS
// grain) calibrated against cache hit rates (finer coverage), so ASes seen
// by either technique get a relative-activity estimate in common units.
func BuildMap(in BuildInputs) *TrafficMap {
	m := &TrafficMap{
		Top: in.Top,
		Users: UsersComponent{
			ActivePrefixes: map[topology.PrefixID]bool{},
			PrefixHitRate:  map[topology.PrefixID]float64{},
			ASActivity:     map[topology.ASN]float64{},
			Sources:        map[topology.ASN]ActivitySource{},
			Coverage:       map[topology.PrefixID]Coverage{},
			ASConfidence:   map[topology.ASN]float64{},
		},
		Services: ServicesComponent{
			Scan:    in.Scan,
			Mapping: map[MappingKey]topology.PrefixID{},
		},
		Routes: RoutesComponent{Observed: in.Observed, Augmented: in.Augmented},
	}

	// --- Users: cache probing ------------------------------------------
	asHit := map[topology.ASN]float64{}
	asHitN := map[topology.ASN]float64{}
	// The two prefix-keyed maps are copies of campaign outputs: made at their
	// final size, not grown to it.
	if in.Discovery != nil {
		m.Users.ActivePrefixes = make(map[topology.PrefixID]bool, len(in.Discovery.Found))
		for p := range in.Discovery.Found {
			m.Users.ActivePrefixes[p] = true
			if asn, ok := in.Top.OwnerOf(p); ok {
				m.Users.Sources[asn] |= FromCacheProbe
			}
		}
	}
	if in.HitRates != nil {
		m.Users.PrefixHitRate = make(map[topology.PrefixID]float64, len(in.HitRates.ByPrefix))
		// Sorted prefix order keeps the per-AS hit-rate folds bit-identical
		// across runs; map order would shuffle the float associations.
		for _, p := range order.Keys(in.HitRates.ByPrefix) {
			hr := in.HitRates.ByPrefix[p]
			m.Users.PrefixHitRate[p] = hr
			if asn, ok := in.Top.OwnerOf(p); ok {
				asHit[asn] += hr
				asHitN[asn]++
				if hr > 0 {
					m.Users.Sources[asn] |= FromCacheProbe
				}
			}
		}
	}

	// --- Users: coverage annotations -----------------------------------
	// A sweep that fought a faulty substrate grades every cell it touched;
	// downstream consumers can weight or discard gave-up/stale cells.
	if in.Sweep != nil {
		asOK := map[topology.ASN]float64{}
		asN := map[topology.ASN]float64{}
		for p, o := range in.Sweep.Outcome {
			var c Coverage
			switch o {
			case cacheprobe.TargetProbedOK:
				c = CoverageProbedOK
			case cacheprobe.TargetGaveUp:
				c = CoverageGaveUp
			default:
				c = CoverageStale
			}
			m.Users.Coverage[p] = c
			if asn, ok := in.Top.OwnerOf(p); ok {
				asN[asn]++
				if c == CoverageProbedOK {
					asOK[asn]++
				}
			}
		}
		for asn, n := range asN {
			m.Users.ASConfidence[asn] = asOK[asn] / n
		}
	}

	// --- Users: root logs ----------------------------------------------
	rootAct := map[topology.ASN]float64{}
	if in.RootCrawl != nil {
		for asn, q := range in.RootCrawl.ClientASes(in.PublicResolverOwner) {
			rootAct[asn] = q
			m.Users.Sources[asn] |= FromRootLogs
		}
	}

	// --- Combine: calibrate hit-rate sums into root-log units -----------
	// Using ASes covered by both, estimate queries-per-hit-rate-unit via
	// a median ratio, then fill cache-only ASes with calibrated values.
	var ratios []float64
	for asn, q := range rootAct {
		if h := asHit[asn]; h > 0 {
			ratios = append(ratios, q/h)
		}
	}
	calib := 0.0
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		calib = ratios[len(ratios)/2]
	}
	// Each technique under-counts in different places (root logs miss
	// outsourced-resolver networks and attribute their clients to the
	// provider; cache probing misses public-DNS opt-outs), so the
	// combined estimate takes the larger of the two signals.
	for asn, q := range rootAct {
		m.Users.ASActivity[asn] = q
	}
	if calib > 0 {
		for asn, h := range asHit {
			if v := h * calib; h > 0 && v > m.Users.ASActivity[asn] {
				m.Users.ASActivity[asn] = v
			}
		}
	}

	// --- Services: user→host mapping via ECS ----------------------------
	if in.Auth != nil && in.PR != nil {
		for _, dom := range in.MapDomains {
			for asn := range m.Users.Sources {
				a := in.Top.ASes[asn]
				if a == nil || len(a.Prefixes) == 0 {
					continue
				}
				rep := a.Prefixes[0]
				resolverAt := geo.Coord{}
				if pop := in.PR.HomePoP(rep); pop != nil {
					resolverAt = pop.City.Coord
				}
				ans, err := in.Auth.ResolveECS(dom, rep, resolverAt)
				if err != nil {
					continue
				}
				m.Services.Mapping[MappingKey{Domain: dom, ClientAS: asn}] = ans.Prefix
			}
		}
	}
	return m
}

// ActivityShare returns an AS's share of the map's total estimated
// activity.
func (m *TrafficMap) ActivityShare(asn topology.ASN) float64 {
	total := order.SumValues(m.Users.ASActivity)
	if total == 0 {
		return 0
	}
	return m.Users.ASActivity[asn] / total
}
