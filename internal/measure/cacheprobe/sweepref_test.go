package cacheprobe

// The four sharded sweeps of the parent commit (5ba8f43), kept verbatim as
// the oracle for sweepShards and the two merges: both naive fan-outs with
// their hand-written folds, and both resilient sweeps with theirs — the
// inline outcome classification, the breaker-opens sums and the
// set-then-restore of rp.Retry.Retryable included. Changed only where the
// move forces it: names are ref-prefixed, and the per-probe helpers the
// resilient sweeps called (probe, breaker) come along under their old
// signatures. newShard, shardRange and the ledger are the package's own.

import (
	"errors"

	"itmap/internal/dnssim"
	"itmap/internal/faults"
	"itmap/internal/obs"
	"itmap/internal/obs/history"
	"itmap/internal/parallel"
	"itmap/internal/resilience"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/users"
)

// DiscoverPrefixesParallel is DiscoverPrefixes fanned out over worker
// goroutines. Results — and the error, if any shard hits one — are
// identical to the serial sweep's.
func (pb *Prober) refDiscoverPrefixesParallel(top *topology.Topology, prefixes []topology.PrefixID, start simtime.Time, rounds int) (*Discovery, error) {
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
func (pb *Prober) refMeasureHitRatesParallel(top *topology.Topology, prefixes []topology.PrefixID, domain string, start simtime.Time, interval simtime.Time) (*HitRates, error) {
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

func (ss *shardState) refBreaker(pop int, cfg resilience.BreakerConfig, st *SweepStats) *resilience.Breaker {
	b := ss.breakers[pop]
	if b == nil {
		b = resilience.NewBreaker(cfg)
		// Breakers and ledgers are both shard-local, so the hook needs no
		// locking and the per-edge counts merge in shard order.
		b.OnStateChange = func(from, to resilience.State, _ simtime.Time) {
			st.BreakerTransitions[from.String()+">"+to.String()]++
		}
		ss.breakers[pop] = b
	}
	return b
}

// probe issues one logical probe with retries. Returns (hit, definitive,
// datagrams): definitive is false when the retry budget died without an
// answer; datagrams counts packets actually sent (breaker-skipped attempts
// send nothing). The first attempt fires when the pacer grants it (the
// pacer is monotone, so a backlogged source slips later and later);
// retries then advance through backoff, sliding out of ban windows and
// outages. One target's retries never delay another target — a real
// prober multiplexes its outstanding probes.
func (rp *ResilientProber) refProbe(ss *shardState, st *SweepStats, pop int, pp *dnssim.Probe, p topology.PrefixID, sched simtime.Time) (bool, bool, int) {
	br := ss.refBreaker(pop, rp.Breaker, st)
	var hit bool
	sent := 0
	key := uint64(p)
	grant := ss.pacer.Next(sched)
	if grant > sched {
		st.PacerWaits++
	}
	out := rp.Retry.Do(grant, key, func(attempt int, at simtime.Time) error {
		if !br.Allow(at) {
			st.Skips++
			return faults.ErrTimeout // counts as failure, but no datagram
		}
		st.Probes++
		sent++
		if sent > 1 {
			st.Retries++
		}
		h, err := pp.At(at, dnssim.ProbeOpts{Source: ss.source, Attempt: attempt})
		// Only timeouts feed the breaker: silence is the dead-PoP signal.
		// A throttle is the source's problem (backoff handles it) and a
		// SERVFAIL is a per-query flake; tripping the PoP breaker on
		// either turns one banned source into a shard-wide skip storm.
		br.Record(at, !errors.Is(err, faults.ErrTimeout))
		if err != nil {
			return err
		}
		hit = h
		return nil
	})
	if out.Err != nil {
		return false, false, sent
	}
	return hit, true, sent
}

// DiscoverPrefixes is the resilient DiscoverPrefixes: same discovery
// semantics (a prefix is found on its first cache hit), plus retry,
// breaker, and pacing behaviour, and a SweepStats ledger classifying every
// target as probed-ok, gave-up, or skipped.
func (rp *ResilientProber) refDiscoverPrefixes(top *topology.Topology, prefixes []topology.PrefixID, start simtime.Time, rounds int) (*Discovery, *SweepStats, error) {
	if rounds < 1 {
		rounds = 1
	}
	retryable := rp.Retry.Retryable
	if retryable == nil {
		rp.Retry.Retryable = faults.IsTransient
	}
	n := rp.shards()
	root := obs.StartSpan("cacheprobe.discover", start).
		SetAttrInt("targets", int64(len(prefixes))).
		SetAttrInt("shards", int64(n)).
		SetAttrInt("rounds", int64(rounds))
	type shardResult struct {
		d  *Discovery
		st *SweepStats
	}
	results := make([]shardResult, n)
	parallel.ForEach(n, rp.Workers, func(i int) {
		lo, hi := shardRange(i, n, len(prefixes))
		if lo >= hi {
			return
		}
		sp := root.Child("shard", start).SetOrder(i).SetAttrInt("shard", int64(i))
		ss := rp.newShard(i)
		d := &Discovery{
			Found:     map[topology.PrefixID]bool{},
			FoundASes: map[topology.ASN]bool{},
			ByPoP:     map[int]int{},
		}
		st := newSweepStats()
		grid := roundsGrid(start, rounds)
		for _, p := range prefixes[lo:hi] {
			pop := rp.PR.HomePoP(p)
			if pop == nil {
				continue
			}
			definitive := 0
			attempts := 0
		domains:
			for _, dom := range rp.Domains {
				pp := rp.PR.PrepareHome(pop, dom, p)
				for r := 0; r < rounds; r++ {
					hit, ok, att := rp.refProbe(ss, st, pop.ID, &pp, p, grid.Time(r))
					attempts += att
					if !ok {
						continue
					}
					definitive++
					d.Probes++
					if hit {
						d.Found[p] = true
						if asn, ok := top.OwnerOf(p); ok {
							d.FoundASes[asn] = true
						}
						break domains
					}
				}
			}
			st.Attempts[p] = attempts
			switch {
			case definitive > 0:
				st.Outcome[p] = TargetProbedOK
			case attempts > 0:
				st.Outcome[p] = TargetGaveUp
				st.GiveUps++
			default:
				st.Outcome[p] = TargetSkipped
			}
			if d.Found[p] {
				d.ByPoP[pop.ID]++
			}
		}
		for _, b := range ss.breakers {
			st.BreakerOpens += b.Opens
		}
		sp.SetAttrInt("datagrams", int64(st.Probes)).End(start + 24)
		results[i] = shardResult{d, st}
	})
	rp.Retry.Retryable = retryable

	out := &Discovery{
		Found:     map[topology.PrefixID]bool{},
		FoundASes: map[topology.ASN]bool{},
		ByPoP:     map[int]int{},
	}
	stats := newSweepStats()
	for _, r := range results {
		if r.d == nil {
			continue
		}
		for p := range r.d.Found {
			out.Found[p] = true
		}
		for asn := range r.d.FoundASes {
			out.FoundASes[asn] = true
		}
		for pop, c := range r.d.ByPoP {
			out.ByPoP[pop] += c
		}
		out.Probes += r.d.Probes
		stats.merge(r.st)
	}
	// Keep naive-Discovery units: Probes counts datagrams issued, Failed
	// the ones faults ate. Shards accumulated definitive answers in
	// d.Probes; the ledger has the datagram truth.
	answered := out.Probes
	out.Probes = stats.Probes
	out.Failed = stats.Probes - answered
	stats.reportObs("discover")
	prefixesFound.Add(uint64(len(out.Found)))
	// Fleet-health history sample: the sweep just folded its per-agent
	// ledgers on this serial path, so the capture is deterministic.
	history.Observe("sweep", "sweep-discover", start+24)
	root.SetAttrInt("found", int64(len(out.Found))).
		SetAttrInt("datagrams", int64(stats.Probes)).
		End(start + 24)
	return out, stats, nil
}

// MeasureHitRates is the resilient hit-rate campaign: each probe slot is
// retried to a definitive answer or budget exhaustion, and — unlike the
// naive campaign, which keeps failures in its denominators — the rate uses
// answered probes only, so faults cost precision, not bias.
func (rp *ResilientProber) refMeasureHitRates(top *topology.Topology, prefixes []topology.PrefixID, domain string, start simtime.Time, interval simtime.Time) (*HitRates, *SweepStats, error) {
	if interval <= 0 {
		interval = 5 * simtime.Minute
	}
	retryable := rp.Retry.Retryable
	if retryable == nil {
		rp.Retry.Retryable = faults.IsTransient
	}
	probesPer := probesPerDay(interval)
	n := rp.shards()
	root := obs.StartSpan("cacheprobe.hitrates", start).
		SetAttrInt("targets", int64(len(prefixes))).
		SetAttrInt("shards", int64(n)).
		SetAttrInt("probes_per_prefix", int64(probesPer))
	type shardResult struct {
		hr *HitRates
		st *SweepStats
	}
	results := make([]shardResult, n)
	parallel.ForEach(n, rp.Workers, func(i int) {
		lo, hi := shardRange(i, n, len(prefixes))
		if lo >= hi {
			return
		}
		sp := root.Child("shard", start).SetOrder(i).SetAttrInt("shard", int64(i))
		ss := rp.newShard(i)
		hr := &HitRates{
			ByPrefix:        map[topology.PrefixID]float64{},
			ByAS:            map[topology.ASN]float64{},
			ProbesPerPrefix: probesPer,
		}
		st := newSweepStats()
		grid := users.Every(start, interval, probesPer)
		for _, p := range prefixes[lo:hi] {
			pop := rp.PR.HomePoP(p)
			if pop == nil {
				continue
			}
			pp := rp.PR.PrepareHome(pop, domain, p)
			hits, answered, attempts := 0, 0, 0
			for r := 0; r < probesPer; r++ {
				hit, ok, att := rp.refProbe(ss, st, pop.ID, &pp, p, grid.Time(r))
				attempts += att
				if !ok {
					continue
				}
				answered++
				if hit {
					hits++
				}
			}
			st.Attempts[p] = attempts
			switch {
			case answered > 0:
				st.Outcome[p] = TargetProbedOK
			case attempts > 0:
				st.Outcome[p] = TargetGaveUp
				st.GiveUps++
			default:
				st.Outcome[p] = TargetSkipped
			}
			if answered > 0 {
				hr.ByPrefix[p] = float64(hits) / float64(answered)
			} else {
				hr.ByPrefix[p] = 0
			}
			hr.Failed += attempts - answered
			if asn, ok := top.OwnerOf(p); ok {
				hr.ByAS[asn] += float64(hits)
			}
		}
		for _, b := range ss.breakers {
			st.BreakerOpens += b.Opens
		}
		sp.SetAttrInt("datagrams", int64(st.Probes)).End(start + 24)
		results[i] = shardResult{hr, st}
	})
	rp.Retry.Retryable = retryable

	out := &HitRates{
		ByPrefix:        map[topology.PrefixID]float64{},
		ByAS:            map[topology.ASN]float64{},
		ProbesPerPrefix: probesPer,
	}
	stats := newSweepStats()
	for _, r := range results {
		if r.hr == nil {
			continue
		}
		out.Failed += r.hr.Failed
		for p, v := range r.hr.ByPrefix {
			out.ByPrefix[p] = v
		}
		for asn, v := range r.hr.ByAS {
			out.ByAS[asn] += v
		}
		stats.merge(r.st)
	}
	stats.reportObs("hitrates")
	history.Observe("sweep", "sweep-hitrates", start+24)
	root.SetAttrInt("datagrams", int64(stats.Probes)).End(start + 24)
	return out, stats, nil
}
