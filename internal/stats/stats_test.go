package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWeightedCDFBasics(t *testing.T) {
	var c WeightedCDF
	c.Add(1, 1)
	c.Add(2, 1)
	c.Add(3, 2)
	if len(c.values) != 3 || c.total != 4 {
		t.Fatalf("N=%d W=%f", len(c.values), c.total)
	}
	if got := c.FracAtMost(1); got != 0.25 {
		t.Errorf("FracAtMost(1) = %f", got)
	}
	if got := c.FracAtMost(2.5); got != 0.5 {
		t.Errorf("FracAtMost(2.5) = %f", got)
	}
	if got := c.FracAtMost(3); got != 1 {
		t.Errorf("FracAtMost(3) = %f", got)
	}
	if got := c.Quantile(0.5); got != 2 {
		t.Errorf("median = %f", got)
	}
	if got := c.Quantile(0.9); got != 3 {
		t.Errorf("p90 = %f", got)
	}
}

func TestWeightedCDFIgnoresNonPositiveWeights(t *testing.T) {
	var c WeightedCDF
	c.Add(5, 0)
	c.Add(6, -1)
	if len(c.values) != 0 {
		t.Error("non-positive weights admitted")
	}
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestWeightingChangesTheAnswer(t *testing.T) {
	// The paper's point: 2% of paths are short unweighted, but most
	// traffic takes them.
	var unweighted, weighted WeightedCDF
	// 98 long paths with tiny traffic, 2 short paths with huge traffic.
	for i := 0; i < 98; i++ {
		unweighted.Add(4, 1)
		weighted.Add(4, 1)
	}
	for i := 0; i < 2; i++ {
		unweighted.Add(1, 1)
		weighted.Add(1, 500)
	}
	if got := unweighted.FracAtMost(1); math.Abs(got-0.02) > 1e-9 {
		t.Errorf("unweighted short frac %f", got)
	}
	if got := weighted.FracAtMost(1); got < 0.9 {
		t.Errorf("weighted short frac %f, want > 0.9", got)
	}
}

func TestCDFPropertyMonotone(t *testing.T) {
	f := func(vals []float64) bool {
		var c WeightedCDF
		for _, v := range vals {
			c.Add(math.Mod(math.Abs(v), 100), 1)
		}
		prev := -1.0
		for x := 0.0; x <= 100; x += 7 {
			cur := c.FracAtMost(x)
			if cur < prev-1e-12 || cur < 0 || cur > 1 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect linear corr = %f", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect negative corr = %f", got)
	}
	if got := Pearson(xs, []float64{1, 1, 1, 1, 1}); got != 0 {
		t.Errorf("zero-variance corr = %f", got)
	}
	if got := Pearson(xs, ys[:3]); got != 0 {
		t.Errorf("length mismatch should be 0, got %f", got)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 10, 100, 1000, 10000} // monotone, nonlinear
	if got := Spearman(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Errorf("monotone Spearman = %f", got)
	}
	// Ties handled via average ranks.
	tied := Spearman([]float64{1, 1, 2}, []float64{3, 3, 5})
	if tied <= 0.9 {
		t.Errorf("tied Spearman = %f", tied)
	}
}

func TestKendallTau(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := KendallTau(xs, []float64{10, 20, 30, 40}); got != 1 {
		t.Errorf("concordant tau = %f", got)
	}
	if got := KendallTau(xs, []float64{40, 30, 20, 10}); got != -1 {
		t.Errorf("discordant tau = %f", got)
	}
	mixed := KendallTau(xs, []float64{10, 30, 20, 40})
	if mixed <= 0 || mixed >= 1 {
		t.Errorf("mixed tau = %f", mixed)
	}
}
