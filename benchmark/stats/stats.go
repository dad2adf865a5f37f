// Package stats holds the order statistics the benchmark reports and the
// comparison applies: median, nearest-rank percentile, and the quartiles
// that Python's statistics.quantiles(values, n=4) gives.
package stats

import (
	"math"
	"sort"
)

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// Median returns the middle value (mean of the middle two for an even
// count). It returns NaN for no values.
func Median(values []float64) float64 {
	s := sorted(values)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100): the
// smallest value with at least p percent of the sample at or below it.
func Percentile(values []float64, p float64) float64 {
	s := sorted(values)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1]
}

// Quartiles returns the three cut points statistics.quantiles(values, n=4)
// returns (the "exclusive" method). It needs at least two values.
func Quartiles(values []float64) (q1, q2, q3 float64) {
	s := sorted(values)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Spread is the interquartile distance as a share of the median: the
// run-to-run spread the benchmark contract compares against a bound.
func Spread(values []float64) float64 {
	q1, q2, q3 := Quartiles(values)
	return (q3 - q1) / math.Abs(q2)
}
