package randx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(99), New(99)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(1)
	c1 := parent.Fork()
	c2 := parent.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("forked sources produced %d/100 identical draws", same)
	}
}

func TestIntBetweenBounds(t *testing.T) {
	f := func(lo int8, span uint8) bool {
		s := New(3)
		hi := int(lo) + int(span)
		v := s.IntBetween(int(lo), hi)
		return v >= int(lo) && v <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLognormalMedian(t *testing.T) {
	s := New(7)
	n := 20000
	above := 0
	for i := 0; i < n; i++ {
		if s.Lognormal(0, 0.5) > 1 {
			above++
		}
	}
	frac := float64(above) / float64(n)
	if frac < 0.47 || frac > 0.53 {
		t.Errorf("lognormal(0,.5) median fraction above 1 = %.3f, want ~0.5", frac)
	}
}

func TestParetoTail(t *testing.T) {
	s := New(11)
	n := 50000
	min, big := math.Inf(1), 0
	for i := 0; i < n; i++ {
		v := s.Pareto(2, 1.5)
		if v < min {
			min = v
		}
		if v > 20 {
			big++
		}
	}
	if min < 2 {
		t.Errorf("Pareto(2,1.5) produced value %f below xm", min)
	}
	// P(X>20) = (2/20)^1.5 ≈ 0.0316
	frac := float64(big) / float64(n)
	if frac < 0.02 || frac > 0.05 {
		t.Errorf("Pareto tail mass %.4f, want ≈0.032", frac)
	}
}

func TestZipfWeights(t *testing.T) {
	z := NewZipf(100, 1.0)
	total := 0.0
	for k := 1; k <= 100; k++ {
		w := z.Weight(k)
		if w <= 0 {
			t.Fatalf("weight(%d) = %f", k, w)
		}
		total += w
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("weights sum to %f", total)
	}
	if z.Weight(1) <= z.Weight(2) {
		t.Error("Zipf weights not decreasing")
	}
	if cum := z.weights[99] / z.total; math.Abs(cum-1) > 1e-9 {
		t.Errorf("cumulative weight of all ranks = %f", cum)
	}
	if z.Weight(0) != 0 || z.Weight(101) != 0 {
		t.Error("out-of-range weights should be 0")
	}
}

func TestZipfSampleDistribution(t *testing.T) {
	s := New(17)
	z := NewZipf(50, 1.2)
	counts := make([]int, 51)
	n := 50000
	for i := 0; i < n; i++ {
		k := z.Sample(s)
		if k < 1 || k > 50 {
			t.Fatalf("sample out of range: %d", k)
		}
		counts[k]++
	}
	// Empirical mass of rank 1 should be near its analytic weight.
	want := z.Weight(1)
	got := float64(counts[1]) / float64(n)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("rank-1 mass %.3f, want %.3f", got, want)
	}
	if counts[1] <= counts[10] {
		t.Error("rank 1 not more popular than rank 10")
	}
}

func TestWeightedChoice(t *testing.T) {
	s := New(19)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[s.WeightedChoice(w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.6 || ratio > 3.4 {
		t.Errorf("weight ratio %.2f, want ~3", ratio)
	}
	// All-zero weights fall back to uniform without panicking.
	_ = s.WeightedChoice([]float64{0, 0})
}
