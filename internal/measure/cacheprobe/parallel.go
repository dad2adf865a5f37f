package cacheprobe

import "itmap/internal/parallel"

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
