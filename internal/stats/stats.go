// Package stats provides the weighted statistics the traffic map is built
// to enable — the paper's crusade against unweighted CDFs — plus the
// correlation measures its evaluations use (Pearson, Spearman, Kendall).
package stats

import (
	"math"
	"sort"
)

// WeightedCDF is an empirical CDF over weighted samples. With unit weights
// it is the classic unweighted CDF the paper rails against; with traffic or
// user weights it answers "what fraction of activity...".
type WeightedCDF struct {
	values  []float64
	weights []float64
	total   float64
	sorted  bool
}

// Add appends one weighted sample. Non-positive weights are ignored.
func (c *WeightedCDF) Add(value, weight float64) {
	if weight <= 0 {
		return
	}
	c.values = append(c.values, value)
	c.weights = append(c.weights, weight)
	c.total += weight
	c.sorted = false
}

func (c *WeightedCDF) sort() {
	if c.sorted {
		return
	}
	idx := make([]int, len(c.values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return c.values[idx[a]] < c.values[idx[b]] })
	nv := make([]float64, len(idx))
	nw := make([]float64, len(idx))
	for i, j := range idx {
		nv[i], nw[i] = c.values[j], c.weights[j]
	}
	c.values, c.weights = nv, nw
	c.sorted = true
}

// FracAtMost returns the weighted fraction of samples with value <= x.
func (c *WeightedCDF) FracAtMost(x float64) float64 {
	if c.total == 0 {
		return 0
	}
	c.sort()
	cum := 0.0
	for i, v := range c.values {
		if v > x {
			break
		}
		cum += c.weights[i]
	}
	return cum / c.total
}

// Quantile returns the smallest value v with FracAtMost(v) >= q.
func (c *WeightedCDF) Quantile(q float64) float64 {
	if len(c.values) == 0 {
		return math.NaN()
	}
	c.sort()
	target := q * c.total
	cum := 0.0
	for i, v := range c.values {
		cum += c.weights[i]
		if cum >= target {
			return v
		}
	}
	return c.values[len(c.values)-1]
}

// Pearson returns the Pearson correlation of paired samples. It returns 0
// for degenerate inputs (fewer than 2 points or zero variance).
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// ranks returns average ranks for ties.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// Spearman returns the Spearman rank correlation of paired samples.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	return Pearson(ranks(xs), ranks(ys))
}

// KendallTau returns Kendall's tau-a over paired samples — the rank
// agreement statistic behind Figure 2's "cache hit rate correctly orders
// French ISPs".
func KendallTau(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a := (xs[i] - xs[j]) * (ys[i] - ys[j])
			switch {
			case a > 0:
				concordant++
			case a < 0:
				discordant++
			}
		}
	}
	pairs := n * (n - 1) / 2
	return float64(concordant-discordant) / float64(pairs)
}
