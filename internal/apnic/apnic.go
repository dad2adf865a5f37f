// Package apnic produces APNIC-labs-style per-AS Internet user estimates:
// coarse (AS granularity, not prefix), noisy, and unvalidated — exactly how
// the paper treats the real APNIC data [33]. The estimates derive from the
// simulator's ground truth with multiplicative noise and coverage gaps, so
// experiments can both use them (Figures 1b and 2) and quantify how wrong
// they are.
package apnic

import (
	"sort"

	"itmap/internal/order"
	"itmap/internal/randx"
	"itmap/internal/topology"
	"itmap/internal/users"
)

// Estimates is a published APNIC-like dataset.
type Estimates struct {
	// ByAS is the estimated user count per AS. ASes below the coverage
	// threshold or unlucky in sampling are absent (no APNIC data).
	ByAS map[topology.ASN]float64
}

// Config tunes the estimator's error model.
type Config struct {
	// NoiseSigma is the lognormal sigma of the multiplicative error.
	NoiseSigma float64
	// MinUsers: ASes with fewer ground-truth users than this never make
	// it into the dataset (sample-size floor).
	MinUsers float64
	// DropProb is the chance a qualifying AS is still missing.
	DropProb float64
}

// DefaultConfig matches the coarse, mostly-right character the paper
// ascribes to APNIC's data.
func DefaultConfig() Config {
	return Config{NoiseSigma: 0.35, MinUsers: 5000, DropProb: 0.04}
}

// Estimate publishes a dataset for the world.
func Estimate(top *topology.Topology, um *users.Model, cfg Config, rng *randx.Source) *Estimates {
	e := &Estimates{ByAS: map[topology.ASN]float64{}}
	for _, asn := range top.ASNs() {
		truth := um.ASUsers(asn)
		if truth < cfg.MinUsers {
			continue
		}
		if rng.Bool(cfg.DropProb) {
			continue
		}
		e.ByAS[asn] = truth * rng.Lognormal(0, cfg.NoiseSigma)
	}
	return e
}

// Users returns the published estimate for an AS (0, false if not covered).
func (e *Estimates) Users(asn topology.ASN) (float64, bool) {
	u, ok := e.ByAS[asn]
	return u, ok
}

// CountryUsers aggregates estimates per country code.
//
//itmlint:allow deadexport only its own test calls it (TestCountryAggregation)
func (e *Estimates) CountryUsers(top *topology.Topology) map[string]float64 {
	out := map[string]float64{}
	for _, asn := range order.Keys(e.ByAS) {
		a := top.ASes[asn]
		if a == nil || a.Country == "ZZ" {
			continue
		}
		out[a.Country] += e.ByAS[asn]
	}
	return out
}

// TopASes returns covered ASes by descending estimated users.
//
//itmlint:allow deadexport only its own test calls it (TestTopASesSorted)
func (e *Estimates) TopASes() []topology.ASN {
	out := make([]topology.ASN, 0, len(e.ByAS))
	for asn := range e.ByAS {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool {
		if e.ByAS[out[i]] != e.ByAS[out[j]] {
			return e.ByAS[out[i]] > e.ByAS[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}
