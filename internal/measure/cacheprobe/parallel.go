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

// DiscoverPrefixesParallel is DiscoverPrefixes fanned out over worker
// goroutines. Results — and the error, if any shard hits one — are
// identical to the serial sweep's.
func (pb *Prober) DiscoverPrefixesParallel(top *topology.Topology, prefixes []topology.PrefixID, start simtime.Time, rounds int) (*Discovery, error) {
	n := workers()
	if n < 2 || len(prefixes) < 256 {
		return pb.DiscoverPrefixes(top, prefixes, start, rounds)
	}
	type shard struct {
		d   *Discovery
		err error
	}
	shards := make([]shard, n)
	parallel.ForEach(n, n, func(w int) {
		if lo, hi := shardRange(w, n, len(prefixes)); lo < hi {
			d, err := pb.DiscoverPrefixes(top, prefixes[lo:hi], start, rounds)
			shards[w] = shard{d, err}
		}
	})
	// Shards run in prefix order, so the first failed shard holds the error
	// the serial sweep would have stopped at.
	found := 0
	for _, s := range shards {
		if s.err != nil {
			return nil, s.err
		}
		if s.d != nil {
			found += len(s.d.Found)
		}
	}
	out := &Discovery{
		Found:     make(map[topology.PrefixID]bool, found),
		FoundASes: map[topology.ASN]bool{},
		ByPoP:     map[int]int{},
	}
	for _, s := range shards {
		if s.d == nil {
			continue
		}
		for p := range s.d.Found {
			out.Found[p] = true
		}
		for asn := range s.d.FoundASes {
			out.FoundASes[asn] = true
		}
		for pop, c := range s.d.ByPoP {
			out.ByPoP[pop] += c
		}
		out.Probes += s.d.Probes
		out.Failed += s.d.Failed
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
	type shard struct {
		hr  *HitRates
		err error
	}
	shards := make([]shard, n)
	parallel.ForEach(n, n, func(w int) {
		if lo, hi := shardRange(w, n, len(prefixes)); lo < hi {
			hr, err := pb.MeasureHitRates(top, prefixes[lo:hi], domain, start, interval)
			shards[w] = shard{hr, err}
		}
	})
	for _, s := range shards {
		if s.err != nil {
			return nil, s.err
		}
	}
	// Shards cut the prefix list, so every prefix is measured by one of them.
	out := &HitRates{
		ByPrefix: make(map[topology.PrefixID]float64, len(prefixes)),
		ByAS:     map[topology.ASN]float64{},
	}
	for _, s := range shards {
		if s.hr == nil {
			continue
		}
		out.ProbesPerPrefix = s.hr.ProbesPerPrefix
		out.Failed += s.hr.Failed
		for p, v := range s.hr.ByPrefix {
			out.ByPrefix[p] = v
		}
		for asn, v := range s.hr.ByAS {
			out.ByAS[asn] += v
		}
	}
	return out, nil
}
