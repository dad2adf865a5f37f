package cachesim

import (
	"math"
	"testing"
	"testing/quick"

	"itmap/internal/randx"
)

func contains(c *LRU, key uint64) bool {
	_, ok := c.items[key]
	return ok
}

func TestLRUBasics(t *testing.T) {
	c := NewLRU(2)
	if c.Request(1) {
		t.Error("first request hit")
	}
	if !c.Request(1) {
		t.Error("second request missed")
	}
	c.Request(2)
	c.Request(3) // evicts 1 (LRU), keeps 2? no: after Request(1),1 is MRU... order: 1 hit -> 1 MRU; insert 2 -> 2 MRU; insert 3 -> evict 1
	if contains(c, 1) {
		t.Error("LRU item not evicted")
	}
	if !contains(c, 2) || !contains(c, 3) {
		t.Error("recent items evicted")
	}
	if len(c.items) != 2 {
		t.Errorf("len %d", len(c.items))
	}
}

func TestLRURecencyOrder(t *testing.T) {
	c := NewLRU(3)
	c.Request(1)
	c.Request(2)
	c.Request(3)
	c.Request(1) // 1 becomes MRU; order now 1,3,2
	c.Request(4) // evicts 2
	if contains(c, 2) {
		t.Error("expected 2 evicted")
	}
	for _, k := range []uint64{1, 3, 4} {
		if !contains(c, k) {
			t.Errorf("expected %d cached", k)
		}
	}
}

func TestLRUCapacityInvariant(t *testing.T) {
	f := func(keys []uint16, capRaw uint8) bool {
		capacity := int(capRaw%32) + 1
		c := NewLRU(capacity)
		for _, k := range keys {
			c.Request(uint64(k % 64))
			if len(c.items) > capacity {
				return false
			}
		}
		return c.hits+c.misses == int64(len(keys))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLRUSingleSlot(t *testing.T) {
	c := NewLRU(1)
	c.Request(1)
	c.Request(2)
	if contains(c, 1) || !contains(c, 2) || len(c.items) != 1 {
		t.Error("single-slot cache misbehaved")
	}
}

func TestNewLRUPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewLRU(0)
}

func TestZipfWorkloadMatchesChe(t *testing.T) {
	rng := randx.New(1)
	w := NewZipfWorkload(2000, 0.9)
	for _, capacity := range []int{50, 200, 800} {
		c := NewLRU(capacity)
		sim := MeasureHitRate(c, w, rng, 40000, 200000)
		che := CheHitRate(capacity, w.Weights())
		if math.Abs(sim-che) > 0.03 {
			t.Errorf("capacity %d: simulated %.3f vs Che %.3f", capacity, sim, che)
		}
	}
}

func TestHitRateGrowsWithCapacity(t *testing.T) {
	rng := randx.New(2)
	w := NewZipfWorkload(1000, 1.0)
	prev := -1.0
	for _, capacity := range []int{10, 50, 250, 1000} {
		hr := MeasureHitRate(NewLRU(capacity), w, rng, 20000, 80000)
		if hr < prev-0.02 {
			t.Errorf("hit rate fell with capacity: %.3f after %.3f", hr, prev)
		}
		prev = hr
	}
	if prev < 0.95 {
		t.Errorf("catalog-sized cache hit rate %.3f, want ~1", prev)
	}
}

func TestFlashEventRaisesHitRate(t *testing.T) {
	rng := randx.New(3)
	base := NewZipfWorkload(5000, 0.8)
	normal := MeasureHitRate(NewLRU(100), base, rng, 30000, 120000)
	flash := &FlashWorkload{Base: base, HotKey: 999999, HotShare: 0.6}
	during := MeasureHitRate(NewLRU(100), flash, rng, 30000, 120000)
	if during <= normal+0.2 {
		t.Errorf("flash event hit rate %.3f vs normal %.3f; one hot object should cache perfectly",
			during, normal)
	}
}

func TestCheEdgeCases(t *testing.T) {
	w := NewZipfWorkload(100, 1.0)
	if got := CheHitRate(100, w.Weights()); got != 1 {
		t.Errorf("cache >= catalog should hit 100%%, got %f", got)
	}
	if got := CheHitRate(150, w.Weights()); got != 1 {
		t.Errorf("oversized cache should hit 100%%, got %f", got)
	}
	small := CheHitRate(1, w.Weights())
	if small <= 0 || small >= 0.5 {
		t.Errorf("1-slot Che hit rate %f implausible", small)
	}
}

func BenchmarkLRURequest(b *testing.B) {
	c := NewLRU(10000)
	rng := randx.New(1)
	w := NewZipfWorkload(100000, 0.9)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = w.Next(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Request(keys[i&(1<<16-1)])
	}
}
