// Package geoloc implements §3.2.3 approach 3: locating serving
// infrastructure at fine granularity with constraint-based localization.
// Each vantage point's minimum RTT to a target bounds the target's distance
// (speed-of-light constraint); the estimate is the constraint-weighted
// position. In-facility vantage points (servers inside colocation sites)
// tighten the constraints dramatically — the paper's suggested refinement.
package geoloc

import (
	"math"
	"sort"

	"itmap/internal/geo"
	"itmap/internal/latency"
	"itmap/internal/topology"
)

// VantagePoint is a host with a known location that can ping targets.
type VantagePoint struct {
	Prefix topology.PrefixID
	Coord  geo.Coord
	Name   string
}

// Constraint is one vantage point's distance bound on the target.
type Constraint struct {
	VP VantagePoint
	// RadiusKm is the maximum distance the target can be from the VP
	// given the measured minimum RTT.
	RadiusKm float64
	// RTTms is the measured minimum RTT.
	RTTms float64
}

// Estimate is a geolocation result.
type Estimate struct {
	Coord geo.Coord
	// ConfidenceKm is the radius of the tightest constraint — a bound
	// on how wrong the estimate can be.
	ConfidenceKm float64
	Constraints  []Constraint
}

// Localize estimates a target prefix's location from RTTs measured at the
// given vantage points, with probesPerVP pings each.
func Localize(m *latency.Model, vps []VantagePoint, target topology.PrefixID, probesPerVP int) (Estimate, bool) {
	var cons []Constraint
	for _, vp := range vps {
		rtt, ok := m.MinRTTms(vp.Prefix, target, probesPerVP)
		if !ok {
			continue
		}
		cons = append(cons, Constraint{
			VP: vp,
			// The whole RTT could be propagation: hard upper bound.
			RadiusKm: rtt * latency.KmPerMsRTT,
			RTTms:    rtt,
		})
	}
	if len(cons) == 0 {
		return Estimate{}, false
	}
	sort.Slice(cons, func(i, j int) bool { return cons[i].RadiusKm < cons[j].RadiusKm })

	// Weighted centroid: tighter constraints dominate. A VP with a tiny
	// radius pins the target; far VPs contribute little.
	var sumW, sumLat, sumLon float64
	for _, c := range cons {
		w := 1 / (c.RadiusKm*c.RadiusKm + 100)
		sumW += w
		sumLat += w * c.VP.Coord.Lat
		sumLon += w * c.VP.Coord.Lon
	}
	est := Estimate{
		Coord: geo.Coord{
			Lat: sumLat / sumW,
			Lon: sumLon / sumW,
		},
		ConfidenceKm: cons[0].RadiusKm,
		Constraints:  cons,
	}
	// A weighted centroid in lat/lon space is a poor spherical estimator
	// (and can violate tight constraints). Serving infrastructure lives
	// in datacenter cities, so refine by candidate search: pick the known
	// city most consistent with the constraints (zero violation — the
	// true city always has it — then the tightest fit).
	if best, ok := bestCandidateCity(cons); ok {
		est.Coord = best
	}
	return est, true
}

// candidateCities lists the world's plausible server locations: country
// capitals (which include the region hubs).
func candidateCities() []geo.Coord {
	var out []geo.Coord
	for _, c := range geo.Countries() {
		out = append(out, c.Capital.Coord)
	}
	return out
}

// bestCandidateCity returns the candidate with the least total constraint
// violation, breaking ties toward the most central fit.
func bestCandidateCity(cons []Constraint) (geo.Coord, bool) {
	cands := candidateCities()
	if len(cands) == 0 {
		return geo.Coord{}, false
	}
	bestIdx := -1
	bestViolation, bestFit := math.Inf(1), math.Inf(1)
	for i, cand := range cands {
		violation, fit := 0.0, 0.0
		for _, c := range cons {
			d := geo.DistanceKm(cand, c.VP.Coord)
			if d > c.RadiusKm {
				violation += d - c.RadiusKm
			}
			fit += d / (c.RadiusKm + 1)
		}
		if violation < bestViolation-1e-9 ||
			(math.Abs(violation-bestViolation) <= 1e-9 && fit < bestFit) {
			bestIdx, bestViolation, bestFit = i, violation, fit
		}
	}
	return cands[bestIdx], true
}

// ErrorKm returns the distance between the estimate and the true location.
func (e Estimate) ErrorKm(truth geo.Coord) float64 {
	return geo.DistanceKm(e.Coord, truth)
}

// AtlasVPSet builds a vantage set from academic networks (their campus
// locations are public).
func AtlasVPSet(top *topology.Topology) []VantagePoint {
	var out []VantagePoint
	for _, asn := range top.ASesOfType(topology.Academic) {
		a := top.ASes[asn]
		if len(a.Prefixes) == 0 {
			continue
		}
		p := a.Prefixes[0]
		out = append(out, VantagePoint{
			Prefix: p,
			Coord:  top.PrefixCity[p].Coord,
			Name:   a.Name,
		})
	}
	return out
}

// FacilityVPSet builds the paper's refinement: vantage points inside
// colocation facilities ("constraint-based localization from in-facility
// vantage points"). Hosts are the serving prefixes of owners with known
// (facility) locations — here the giants' own on-net sites whose facility
// coordinates are public.
func FacilityVPSet(top *topology.Topology, sitePrefixes map[topology.PrefixID]geo.City) []VantagePoint {
	var ps []topology.PrefixID
	for p := range sitePrefixes {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	var out []VantagePoint
	for _, p := range ps {
		out = append(out, VantagePoint{Prefix: p, Coord: sitePrefixes[p].Coord, Name: sitePrefixes[p].Name})
	}
	return out
}

// Summary aggregates localization errors.
type Summary struct {
	Targets  int
	MedianKm float64
	P90Km    float64
}

// Summarize computes error quantiles over a set of results.
func Summarize(errorsKm []float64) Summary {
	s := Summary{Targets: len(errorsKm)}
	if len(errorsKm) == 0 {
		return s
	}
	sorted := append([]float64(nil), errorsKm...)
	sort.Float64s(sorted)
	s.MedianKm = sorted[len(sorted)/2]
	s.P90Km = sorted[int(math.Min(float64(len(sorted)-1), 0.9*float64(len(sorted))))]
	return s
}
