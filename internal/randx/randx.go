// Package randx provides deterministic, seedable random distributions used
// throughout the simulator: Zipf ranks, lognormal jitter, power-law degrees,
// and weighted choice. All simulator randomness flows through a *Source so
// that a world is fully reproducible from (config, seed).
package randx

import (
	"math"
	"math/rand"
	"sort"
)

// Source wraps math/rand with the distribution helpers the simulator needs.
// It is NOT safe for concurrent use; derive per-goroutine sources with Fork.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// Fork derives a new independent Source from this one. Forking is
// deterministic: the child's seed is drawn from the parent's stream.
func (s *Source) Fork() *Source {
	return New(s.r.Int63())
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// IntBetween returns a pseudo-random int in [lo, hi]. It panics if hi < lo.
func (s *Source) IntBetween(lo, hi int) int {
	if hi < lo {
		panic("randx: IntBetween with hi < lo")
	}
	return lo + s.r.Intn(hi-lo+1)
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.r.Float64() < p }

// Lognormal returns exp(N(mu, sigma)). With mu=0 this is a multiplicative
// jitter centred on 1 (median 1, mean exp(sigma^2/2)).
func (s *Source) Lognormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.r.NormFloat64())
}

// Pareto returns a Pareto(xm, alpha) variate: xm * U^(-1/alpha). Heavy-tailed
// for small alpha; used for user-population and prefix-count draws.
func (s *Source) Pareto(xm, alpha float64) float64 {
	u := s.r.Float64()
	for u == 0 {
		u = s.r.Float64()
	}
	return xm * math.Pow(u, -1/alpha)
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Zipf holds a finite Zipf distribution over ranks 1..N with exponent alpha:
// P(rank=k) ∝ k^(-alpha). Used for service popularity.
type Zipf struct {
	weights []float64 // cumulative
	total   float64
}

// NewZipf builds a Zipf distribution over n ranks with exponent alpha > 0.
func NewZipf(n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("randx: NewZipf with n <= 0")
	}
	z := &Zipf{weights: make([]float64, n)}
	cum := 0.0
	for k := 1; k <= n; k++ {
		cum += math.Pow(float64(k), -alpha)
		z.weights[k-1] = cum
	}
	z.total = cum
	return z
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.weights) }

// Weight returns the normalized probability mass of rank k (1-based).
func (z *Zipf) Weight(k int) float64 {
	if k < 1 || k > len(z.weights) {
		return 0
	}
	prev := 0.0
	if k > 1 {
		prev = z.weights[k-2]
	}
	return (z.weights[k-1] - prev) / z.total
}

// Sample draws a rank in [1, N].
func (z *Zipf) Sample(s *Source) int {
	u := s.Float64() * z.total
	i := sort.SearchFloat64s(z.weights, u)
	if i >= len(z.weights) {
		i = len(z.weights) - 1
	}
	return i + 1
}

// WeightedChoice selects an index in [0, len(weights)) with probability
// proportional to weights[i]. Zero total weight selects uniformly.
func (s *Source) WeightedChoice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return s.Intn(len(weights))
	}
	u := s.Float64() * total
	cum := 0.0
	for i, w := range weights {
		cum += w
		if u < cum {
			return i
		}
	}
	return len(weights) - 1
}
