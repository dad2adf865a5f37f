package cacheprobe

import (
	"runtime"

	"itmap/internal/parallel"
	"itmap/internal/simtime"
	"itmap/internal/topology"
)

// Probe outcomes are pure functions of (PoP, domain, prefix, TTL window),
// so sweeps parallelize with byte-identical results. A real campaign is
// bounded by resolver rate limits instead; Workers models the prober's
// concurrency, not the resolver's.

// Workers returns the worker count for parallel sweeps (GOMAXPROCS).
func workers() int { return runtime.GOMAXPROCS(0) }

// shardRange returns the bounds of shard i when total items are cut into n
// contiguous chunks; trailing shards are empty (lo >= hi) when n does not
// divide the work.
func shardRange(i, n, total int) (lo, hi int) {
	chunk := (total + n - 1) / n
	lo = i * chunk
	return lo, min(lo+chunk, total)
}

// sweepShards is the one fan-out behind every sharded sweep: total targets
// cut into n contiguous shards, sweep run over each non-empty one on up to
// workers goroutines, the results handed to fold in shard order. Shards
// follow target order, so the first failed shard holds the error a serial
// sweep would have stopped at; that error is returned and nothing is folded.
func sweepShards[T any](n, workers, total int, fold func(*T), sweep func(shard, lo, hi int) (*T, error)) error {
	results := make([]*T, n)
	errs := make([]error, n)
	parallel.ForEach(n, workers, func(i int) {
		if lo, hi := shardRange(i, n, total); lo < hi {
			results[i], errs[i] = sweep(i, lo, hi)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, r := range results {
		if r != nil {
			fold(r)
		}
	}
	return nil
}

// DiscoverPrefixesParallel is DiscoverPrefixes fanned out over worker
// goroutines. Results — and the error, if any shard hits one — are
// identical to the serial sweep's.
func (pb *Prober) DiscoverPrefixesParallel(top *topology.Topology, prefixes []topology.PrefixID, start simtime.Time, rounds int) (*Discovery, error) {
	n := workers()
	if n < 2 || len(prefixes) < 256 {
		return pb.DiscoverPrefixes(top, prefixes, start, rounds)
	}
	// Sized by its upper bound: a sweep finds most of what it probes.
	out := newDiscovery(len(prefixes))
	err := sweepShards(n, n, len(prefixes), out.merge, func(_, lo, hi int) (*Discovery, error) {
		return pb.DiscoverPrefixes(top, prefixes[lo:hi], start, rounds)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MeasureHitRatesParallel is MeasureHitRates fanned out over workers, with
// identical results and errors.
func (pb *Prober) MeasureHitRatesParallel(top *topology.Topology, prefixes []topology.PrefixID, domain string, start simtime.Time, interval simtime.Time) (*HitRates, error) {
	n := workers()
	if n < 2 || len(prefixes) < 256 {
		return pb.MeasureHitRates(top, prefixes, domain, start, interval)
	}
	// Shards cut the prefix list, so every prefix is measured by one of them.
	out := newHitRates(len(prefixes), 0)
	err := sweepShards(n, n, len(prefixes), out.merge, func(_, lo, hi int) (*HitRates, error) {
		return pb.MeasureHitRates(top, prefixes[lo:hi], domain, start, interval)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
