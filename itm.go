// Package itm builds Internet traffic maps: the locations of users and
// popular services, the mapping between them, the routes connecting them,
// and relative activity levels — constructed purely from public measurement
// techniques, as envisioned in "Towards a traffic map of the Internet"
// (HotNets 2021).
//
// Because the real inputs (public-resolver caches, root DNS logs, CDN
// server logs) are proprietary or rate-limited, the library ships a
// high-fidelity simulated Internet exposing exactly the public interfaces
// the techniques need: DNS queries (recursive and RD=0 cache probes with
// EDNS0 Client Subnet), TLS/SNI handshakes, pings (IP-ID sampling),
// traceroutes, BGP route-collector feeds, and a PeeringDB-like registry.
// The simulator also knows the ground truth, so every estimate the map
// makes can be scored — the role Microsoft's CDN logs play in the paper.
//
// Typical use:
//
//	inet := itm.NewInternet(itm.SmallConfig(42))
//	session := itm.NewSession(inet)
//	tmap := session.Map()                  // assembled traffic map
//	report := tmap.OutageImpact(asn)       // §2.1 use case
//	results := session.RunAll()            // regenerate the paper's tables & figures
//
// A session is one day of a measurement campaign. NewDailySessions
// prepares consecutive days of one campaign: each probes caches and crawls
// root logs on its own day and shares the campaign's TLS scan, hit rates
// and collector view, so DiffMaps on two of them shows day-over-day churn.
//
// The heavy lifting lives in internal packages: internal/topology and
// internal/bgp (the synthetic Internet and its routing), internal/services,
// internal/dnssim, internal/traffic and internal/users (services, DNS and
// ground-truth demand), internal/measure/* (the measurement toolkit),
// internal/core (map assembly and analyses) and internal/experiments
// (paper-artifact reproduction). This package re-exports the surface a
// downstream user needs.
package itm

import (
	"itmap/internal/bgp"
	"itmap/internal/core"
	"itmap/internal/experiments"
	"itmap/internal/peering"
	"itmap/internal/stats"
	"itmap/internal/topology"
	"itmap/internal/traffic"
	"itmap/internal/world"
)

// Re-exported core types. Aliases keep the public API thin while the
// implementations stay in internal packages.
type (
	// Internet is a fully wired simulated Internet: topology, routing,
	// users, services, DNS, and ground-truth traffic.
	Internet = world.World
	// Config selects world scale and seed.
	Config = world.Config
	// Session runs and caches measurement campaigns over an Internet
	// and assembles them into a TrafficMap.
	Session = experiments.Env
	// TrafficMap is the assembled Internet traffic map.
	TrafficMap = core.TrafficMap
	// OutageReport is the map's impact assessment for one AS.
	OutageReport = core.OutageReport
	// UsersValidation scores the map's users component against ground
	// truth.
	UsersValidation = core.UsersValidation
	// Result is one reproduced table/figure/claim with paper-vs-measured
	// values.
	Result = experiments.Result
	// Matrix is the ground-truth traffic matrix.
	Matrix = traffic.Matrix
	// ASN identifies an autonomous system.
	ASN = topology.ASN
	// PrefixID identifies one /24 of address space.
	PrefixID = topology.PrefixID
	// WeightedCDF supports the traffic-weighted statistics the map is
	// built to enable.
	WeightedCDF = stats.WeightedCDF
	// MapDiff summarizes how the users component changed between two
	// map builds.
	MapDiff = core.MapDiff
	// WeightingReport contrasts unweighted and traffic-weighted versions
	// of the metrics researchers habitually compute.
	WeightingReport = core.WeightingReport
)

// DefaultConfig returns the full-scale world (~1.7k ASes, ~45k /24s).
func DefaultConfig(seed int64) Config { return world.Default(seed) }

// SmallConfig returns the example/integration scale world.
func SmallConfig(seed int64) Config { return world.Small(seed) }

// TinyConfig returns the unit-test scale world.
func TinyConfig(seed int64) Config { return world.Tiny(seed) }

// NewInternet builds a simulated Internet.
func NewInternet(cfg Config) *Internet { return world.Build(cfg) }

// NewSession prepares a measurement session over an Internet. Campaign
// results (cache-probing sweeps, root-log crawls, TLS scans, collector
// feeds) are computed lazily and cached.
func NewSession(inet *Internet) *Session { return experiments.NewEnvFromWorld(inet) }

// NewDailySessions prepares one session per simulated day of a single
// campaign: day d probes caches from d·24h and crawls day d's root logs,
// and every day shares the campaign's scan, hit rates and collector view.
// Diffing consecutive days' maps shows the map's day-over-day churn.
func NewDailySessions(inet *Internet, days int) []*Session {
	return experiments.EpochEnvs(inet, days, 0)
}

// BuildMap runs the full measurement pipeline and assembles the traffic
// map: cache-probing discovery + hit rates (users component), root-log
// crawling (activity), TLS/SNI scans (services component) and ECS mapping
// (users→hosts), in the document form it is published in.
func BuildMap(inet *Internet) *TrafficMap {
	return NewSession(inet).Map()
}

// ValidateMap scores a map built on inet against the simulator's ground
// truth, reproducing the paper's §3.1.2 validation against CDN logs.
func ValidateMap(inet *Internet, m *TrafficMap) UsersValidation {
	session := NewSession(inet)
	return core.ValidateUsers(m.Document(), session.Matrix(), session.APNIC())
}

// RunAllExperiments reproduces every table, figure, and quantitative claim
// of the paper on the given Internet.
func RunAllExperiments(inet *Internet) []*Result {
	return NewSession(inet).RunAll()
}

// FormatResults renders experiment results as a plain-text report.
func FormatResults(rs []*Result) string { return experiments.Format(rs) }

// MarkdownResults renders experiment results as Markdown (EXPERIMENTS.md).
func MarkdownResults(rs []*Result) string { return experiments.Markdown(rs) }

// WriteSeriesCSV writes every result's figure series as CSV files under dir.
func WriteSeriesCSV(rs []*Result, dir string) ([]string, error) {
	return experiments.WriteSeriesCSV(rs, dir)
}

// BuildWeightingReport computes the unweighted-vs-weighted contrast report
// over a traffic matrix — the paper's thesis as a reusable analysis.
func BuildWeightingReport(inet *Internet, mx *Matrix) WeightingReport {
	return core.BuildWeightingReport(inet.Top, mx)
}

// DiffMaps compares two maps' users components: prefix churn and activity
// shifts above minShift.
func DiffMaps(before, after *TrafficMap, minShift float64) *MapDiff {
	return core.DiffMaps(before.Document(), after.Document(), minShift)
}

// CollectorFor returns the default route-collector vantage over inet (the
// peers RouteViews-style collectors would have).
func CollectorFor(inet *Internet) *bgp.Collector { return NewSession(inet).Collector() }

// PeeringCandidates runs the §3.3.3 peering-link recommender over the
// public (route-collector) view of inet and returns the top candidates.
func PeeringCandidates(inet *Internet, limit int) []peering.Candidate {
	session := NewSession(inet)
	reg := peering.BuildRegistry(inet.Top, session.APNIC())
	rec := peering.NewRecommender(inet.Top, reg, session.ObservedLinks())
	return rec.Recommend(limit)
}
