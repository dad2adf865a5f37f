// Package apnic produces APNIC-labs-style per-AS Internet user estimates:
// coarse (AS granularity, not prefix), noisy, and unvalidated — exactly how
// the paper treats the real APNIC data [33]. The estimates derive from the
// simulator's ground truth with multiplicative noise and coverage gaps, so
// experiments can both use them (Figures 1b and 2) and quantify how wrong
// they are.
package apnic

import (
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
