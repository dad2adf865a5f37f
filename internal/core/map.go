// Package core assembles measurement outputs into the Internet traffic map
// — the paper's primary contribution — and provides the analyses the map
// enables: outage impact assessment, technique combination, and validation
// against ground truth.
package core

import (
	"fmt"
	"slices"
	"sort"

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

// The labels a document spells ActivitySource values with, indexed by
// value. The ITMB codec carries the value itself, so this is the one place a
// label is named.
var sourceLabels = [...]string{"unknown", "cache-probe", "root-logs", "cache-probe+root-logs"}

// ActivitySources counts the enum's values: every value below it has a
// label, and none at or above it does.
const ActivitySources = len(sourceLabels)

// MarshalText and UnmarshalText spell the enum as its labels, and nothing
// else: a value without a label, or a label no value has, is an error.
func (s ActivitySource) MarshalText() ([]byte, error) {
	l, err := s.label()
	return []byte(l), err
}

func (s *ActivitySource) UnmarshalText(b []byte) error {
	i := slices.Index(sourceLabels[:], string(b))
	if i < 0 {
		return fmt.Errorf("core: unknown %T label %q", *s, b)
	}
	*s = ActivitySource(i)
	return nil
}

func (s ActivitySource) label() (string, error) {
	if int(s) >= len(sourceLabels) {
		return "", fmt.Errorf("core: %T %d has no label", s, s)
	}
	return sourceLabels[s], nil
}

// TrafficMap is the assembled Internet traffic map: the document it serves,
// plus the two measured inputs the map-driven analyses read and the
// document never carries — the topology (OutageImpact, CountryImpactOf) and
// the TLS scan behind OutageImpact's fallbacks.
type TrafficMap struct {
	MapDocument
	Top  *topology.Topology
	Scan *tlsscan.Scan
}

// BuildInputs carries every measurement output the map combines.
type BuildInputs struct {
	Top *topology.Topology
	// Discovery and HitRates come from cache probing. The days of a
	// campaign share one hit-rate campaign, so their maps take it folded
	// once (FoldHitRates).
	Discovery *cacheprobe.Discovery
	HitRates  *HitRateFold
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
}

// HitRateFold is what a map takes from a hit-rate campaign, folded once:
// the PrefixHitRates section (every rate above zero), each AS's sum of its
// prefixes' rates, and the ASes a rate above zero marks FromCacheProbe.
// The days of a campaign share one hit-rate campaign and so one fold; every
// day's map holds the fold's section, which nothing writes once
// FoldHitRates returns.
type HitRateFold struct {
	rates  map[topology.PrefixID]float64
	asHit  map[topology.ASN]float64
	probed []topology.ASN
}

// FoldHitRates folds hr for the maps of top. A nil campaign folds to nil.
func FoldHitRates(top *topology.Topology, hr *cacheprobe.HitRates) *HitRateFold {
	if hr == nil {
		return nil
	}
	f := &HitRateFold{rates: make(map[topology.PrefixID]float64, len(hr.ByPrefix)), asHit: map[topology.ASN]float64{}}
	// Sorted prefix order keeps the per-AS hit-rate folds bit-identical
	// across runs; map order would shuffle the float associations.
	for _, p := range order.Keys(hr.ByPrefix) {
		rate := hr.ByPrefix[p]
		if rate > 0 {
			f.rates[p] = rate
		}
		if asn, ok := top.OwnerOf(p); ok {
			f.asHit[asn] += rate
		}
	}
	// Rates are never negative, so an AS's sum is above zero exactly when
	// one of its rates is.
	for _, asn := range order.Keys(f.asHit) {
		if f.asHit[asn] > 0 {
			f.probed = append(f.probed, asn)
		}
	}
	return f
}

// BuildMap combines the measurement outputs into a traffic map, including
// the §3.1.3 technique combination: root-log activity (a volume proxy at AS
// grain) calibrated against cache hit rates (finer coverage), so ASes seen
// by either technique get a relative-activity estimate in common units. The
// map's document comes back normalized (see Normalize), as it is served.
func BuildMap(in BuildInputs) *TrafficMap {
	m := &TrafficMap{
		MapDocument: MapDocument{
			Version:    mapDocVersion,
			ASActivity: map[topology.ASN]float64{},
			Sources:    map[topology.ASN]ActivitySource{},
		},
		Top:  in.Top,
		Scan: in.Scan,
	}

	// --- Users: cache probing ------------------------------------------
	if in.Discovery != nil {
		m.ActivePrefixes = in.Discovery.Found
		for _, p := range m.ActivePrefixes {
			if asn, ok := in.Top.OwnerOf(p); ok {
				m.Sources[asn] |= FromCacheProbe
			}
		}
	}
	var asHit map[topology.ASN]float64
	if in.HitRates != nil {
		m.PrefixHitRates, asHit = in.HitRates.rates, in.HitRates.asHit
		for _, asn := range in.HitRates.probed {
			m.Sources[asn] |= FromCacheProbe
		}
	}

	// --- Users: root logs ----------------------------------------------
	rootAct := map[topology.ASN]float64{}
	if in.RootCrawl != nil {
		for asn, q := range in.RootCrawl.ClientASes(in.PublicResolverOwner) {
			rootAct[asn] = q
			m.Sources[asn] |= FromRootLogs
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
		m.ASActivity[asn] = q
	}
	if calib > 0 {
		for asn, h := range asHit {
			if v := h * calib; h > 0 && v > m.ASActivity[asn] {
				m.ASActivity[asn] = v
			}
		}
	}

	// --- Services: serving infrastructure from the TLS scan --------------
	if in.Scan != nil {
		m.Servers = make([]ServerDocument, 0, len(in.Scan.Servers))
		for _, s := range in.Scan.Servers {
			m.Servers = append(m.Servers, ServerDocument{
				Prefix:  s.Prefix,
				HostAS:  uint32(s.HostAS),
				OwnerAS: uint32(s.OwnerASN),
				Org:     s.CertOrg,
				City:    s.City.Name,
				Country: s.City.Country,
			})
		}
	}

	// --- Services: user→host mapping via ECS ----------------------------
	if in.Auth != nil && in.PR != nil {
		for _, dom := range in.MapDomains {
			for _, asn := range order.Keys(m.Sources) {
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
				m.Mappings = append(m.Mappings, MappingDocument{Domain: dom, ClientAS: uint32(asn), Serving: ans.Prefix})
			}
		}
	}
	m.Normalize()
	return m
}

// ActivityShare returns an AS's share of the map's total estimated
// activity.
func (doc *MapDocument) ActivityShare(asn topology.ASN) float64 {
	total := order.SumValues(doc.ASActivity)
	if total == 0 {
		return 0
	}
	return doc.ASActivity[asn] / total
}
