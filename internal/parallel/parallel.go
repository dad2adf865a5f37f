// Package parallel provides the worker-pool primitive shared by the
// simulator's sweep-style computations (the BGP origin sweep, the traffic
// matrix shard build, measurement campaigns, WAL recovery). Work items are
// claimed with a single atomic counter instead of a channel: on large
// topologies the per-item channel send/receive dominates small work items,
// while an atomic fetch-add is a few nanoseconds and scales with core count.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns how many goroutines ForEach runs for n items: one per
// available CPU (GOMAXPROCS, the only parallelism rule: no caller picks a
// count), but never more than n and at least one.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(i) for every i in [0, n) across Workers(n) goroutines.
// Items are claimed via an atomic counter, so callers pay no per-item
// synchronization beyond one fetch-add. fn must be safe for concurrent
// invocation on distinct i, and callers keep their results the same at any
// CPU count. ForEach returns after every item has completed.
func ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
