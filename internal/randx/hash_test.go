package randx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHash64Deterministic(t *testing.T) {
	if Hash64(1, 2, 3) != Hash64(1, 2, 3) {
		t.Fatal("hash not deterministic")
	}
	if Hash64(1, 2, 3) == Hash64(1, 2, 4) {
		t.Error("hash ignores last part")
	}
	if Hash64(1, 2) == Hash64(2, 1) {
		t.Error("hash ignores order")
	}
	if Hash64() == Hash64(0) {
		t.Error("empty vs zero-part collide")
	}
}

func TestHashFloatUniform(t *testing.T) {
	n := 50000
	var buckets [10]int
	sum := 0.0
	for i := 0; i < n; i++ {
		u := HashFloat(uint64(i), 0xabc)
		if u < 0 || u >= 1 {
			t.Fatalf("HashFloat out of range: %f", u)
		}
		buckets[int(u*10)]++
		sum += u
	}
	if mean := sum / float64(n); math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %f, want 0.5", mean)
	}
	for b, c := range buckets {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Errorf("bucket %d has %d of %d", b, c, n)
		}
	}
}

func TestHashBoolRate(t *testing.T) {
	n := 40000
	hits := 0
	for i := 0; i < n; i++ {
		if HashBool(0.3, uint64(i), 0xdef) {
			hits++
		}
	}
	rate := float64(hits) / float64(n)
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("HashBool(0.3) rate %f", rate)
	}
	if HashBool(0, 1) {
		t.Error("p=0 fired")
	}
	if !HashBool(1.1, 1) {
		t.Error("p>1 did not fire")
	}
}

func TestHashNormMoments(t *testing.T) {
	n := 60000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := HashNorm(uint64(i), 0x123)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %f", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %f", variance)
	}
}

func TestHashLognormalMedian(t *testing.T) {
	n := 40000
	above := 0
	for i := 0; i < n; i++ {
		if HashLognormal(0, 0.4, uint64(i), 0x77) > 1 {
			above++
		}
	}
	frac := float64(above) / float64(n)
	if frac < 0.48 || frac > 0.52 {
		t.Errorf("lognormal median fraction %f", frac)
	}
	// mu shifts the median.
	if HashLognormal(5, 0.0001, 1, 2) < 100 {
		t.Error("mu=5 lognormal too small")
	}
}

func TestHashPropertyStable(t *testing.T) {
	f := func(a, b uint64) bool {
		return HashFloat(a, b) == HashFloat(a, b) &&
			HashNorm(a, b) == HashNorm(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSourceMiscHelpers(t *testing.T) {
	s := New(5)
	trues := 0
	for i := 0; i < 10000; i++ {
		if s.Bool(0.5) {
			trues++
		}
	}
	if trues < 4700 || trues > 5300 {
		t.Errorf("Bool(0.5) fired %d/10000", trues)
	}
	if got := s.IntBetween(7, 7); got != 7 {
		t.Errorf("IntBetween(7,7) = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("IntBetween(5,3) did not panic")
		}
	}()
	s.IntBetween(5, 3)
}

// TestHashPrefixMatchesHash64: Hash64 is a left fold, so hashing any number
// of leading parts once and folding the rest in reproduces the whole hash —
// what lets a caller hoist the constant parts of a draw out of its loop.
func TestHashPrefixMatchesHash64(t *testing.T) {
	for trial := uint64(0); trial < 200; trial++ {
		parts := make([]uint64, 7)
		for i := range parts {
			parts[i] = splitmix(trial*7 + uint64(i))
		}
		if trial == 0 {
			parts = []uint64{0, 0, math.MaxUint64, 1, 0, 0x9e3779b97f4a7c15, 0}
		}
		want := Hash64(parts...)
		for lead := 0; lead <= 6; lead++ {
			h := Hash64(parts[:lead]...)
			for _, p := range parts[lead:] {
				h = Fold(h, p)
			}
			if h != want {
				t.Fatalf("trial %d: %d leading parts folded to %x, Hash64 = %x", trial, lead, h, want)
			}
			if Unit(h) != HashFloat(parts...) {
				t.Fatalf("trial %d: Unit(%x) = %v, HashFloat = %v", trial, h, Unit(h), HashFloat(parts...))
			}
		}
	}
}
