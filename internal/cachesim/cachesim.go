// Package cachesim simulates edge caches (the off-net boxes hypergiants
// place inside eyeball networks) under realistic request streams. It backs
// the §3.2.3 proposal that "a community-driven project could host caches
// inside research networks/universities, to measure the cache hit rate
// under normal operation and during flash events": the simulator produces
// those hit rates, and the Che approximation provides an analytic
// cross-check of the LRU model.
package cachesim

import (
	"math"

	"itmap/internal/randx"
)

// LRU is a classic least-recently-used object cache.
type LRU struct {
	capacity int
	items    map[uint64]*node
	head     *node // most recent
	tail     *node // least recent

	hits, misses int64
}

type node struct {
	key        uint64
	prev, next *node
}

// NewLRU builds a cache holding up to capacity objects. It panics if
// capacity < 1.
func NewLRU(capacity int) *LRU {
	if capacity < 1 {
		panic("cachesim: capacity must be >= 1")
	}
	return &LRU{capacity: capacity, items: make(map[uint64]*node, capacity)}
}

// HitRate returns hits/(hits+misses), or 0 before any request.
func (c *LRU) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Reset clears the hit/miss counters but keeps cache contents.
func (c *LRU) Reset() { c.hits, c.misses = 0, 0 }

// Request serves one object request: on a hit the object moves to the
// front; on a miss it is inserted, evicting the least-recently-used object
// if the cache is full. Returns whether it was a hit.
func (c *LRU) Request(key uint64) bool {
	if n, ok := c.items[key]; ok {
		c.hits++
		c.moveToFront(n)
		return true
	}
	c.misses++
	n := &node{key: key}
	c.items[key] = n
	c.pushFront(n)
	if len(c.items) > c.capacity {
		evict := c.tail
		c.unlink(evict)
		delete(c.items, evict.key)
	}
	return false
}

func (c *LRU) pushFront(n *node) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *LRU) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *LRU) moveToFront(n *node) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

// Workload generates object requests.
type Workload interface {
	// Next draws the next requested object id.
	Next(rng *randx.Source) uint64
}

// ZipfWorkload requests objects 1..Catalog with Zipf(alpha) popularity —
// the independent reference model for VOD/web catalogs.
type ZipfWorkload struct {
	z *randx.Zipf
}

// NewZipfWorkload builds a Zipf workload over a catalog.
func NewZipfWorkload(catalog int, alpha float64) *ZipfWorkload {
	return &ZipfWorkload{z: randx.NewZipf(catalog, alpha)}
}

// Next implements Workload.
func (w *ZipfWorkload) Next(rng *randx.Source) uint64 {
	return uint64(w.z.Sample(rng))
}

// Weights returns the normalized popularity of each object (1-based index
// shifted to 0-based).
func (w *ZipfWorkload) Weights() []float64 {
	out := make([]float64, w.z.N())
	for k := 1; k <= w.z.N(); k++ {
		out[k-1] = w.z.Weight(k)
	}
	return out
}

// FlashWorkload models a flash event: a share of all requests concentrates
// on one hot object (a live event, a viral clip) on top of a base workload.
type FlashWorkload struct {
	Base     Workload
	HotKey   uint64
	HotShare float64
}

// Next implements Workload.
func (w *FlashWorkload) Next(rng *randx.Source) uint64 {
	if rng.Bool(w.HotShare) {
		return w.HotKey
	}
	return w.Base.Next(rng)
}

// MeasureHitRate drives n requests (after warm requests of cache warm-up)
// through the cache and returns the steady-state hit rate.
func MeasureHitRate(c *LRU, w Workload, rng *randx.Source, warm, n int) float64 {
	for i := 0; i < warm; i++ {
		c.Request(w.Next(rng))
	}
	c.Reset()
	for i := 0; i < n; i++ {
		c.Request(w.Next(rng))
	}
	return c.HitRate()
}

// CheHitRate computes the Che approximation of an LRU cache's hit rate
// under the independent reference model: the characteristic time T solves
// sum_i (1 - exp(-p_i * T)) = capacity, and the hit rate is
// sum_i p_i * (1 - exp(-p_i * T)).
func CheHitRate(capacity int, weights []float64) float64 {
	if capacity >= len(weights) {
		return 1
	}
	occupied := func(t float64) float64 {
		total := 0.0
		for _, p := range weights {
			total += 1 - math.Exp(-p*t)
		}
		return total
	}
	lo, hi := 0.0, 1.0
	for occupied(hi) < float64(capacity) {
		hi *= 2
		if hi > 1e12 {
			break
		}
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if occupied(mid) < float64(capacity) {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := (lo + hi) / 2
	hit := 0.0
	for _, p := range weights {
		hit += p * (1 - math.Exp(-p*t))
	}
	return hit
}
