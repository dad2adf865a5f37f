package cacheprobe

import (
	"errors"
	"slices"

	"itmap/internal/dnssim"
	"itmap/internal/faults"
	"itmap/internal/obs"
	"itmap/internal/obs/history"
	"itmap/internal/resilience"
	"itmap/internal/simtime"
	"itmap/internal/topology"
)

// ResilientProber is the hardened cache-probing client: every probe is
// retried with capped exponential backoff (re-rolling per-packet faults and
// sliding out of ban windows and outages), each PoP sits behind a circuit
// breaker so a dead PoP stops burning probes, a token-bucket pacer keeps
// each source under its QPS budget (the pacer's qps), and the
// target set is split across Shards independent sources so one ban never
// stalls the whole campaign.
//
// Determinism contract: sweep results are a pure function of (world, fault
// plan, prober config, Shards) — worker goroutines only change wall-clock
// time, never outcomes — because shard boundaries are fixed by Shards, all
// mutable state (pacer, breakers, clocks) is per-shard, and shard results
// merge in shard order.
type ResilientProber struct {
	PR *dnssim.PublicResolver
	// Domains to probe, as for Prober.
	Domains []string
	// Retry is the per-probe retry policy. Zero value: 1 attempt, no
	// retries — like the naive prober but with bookkeeping.
	Retry resilience.Retryer
	// Breaker configures the per-PoP circuit breakers.
	Breaker resilience.BreakerConfig
	// QPS is each source's token-bucket budget in queries per simulated
	// second, the pacer's qps. 0 disables pacing.
	QPS float64
	// Burst is the pacer burst size (default 10).
	Burst int
	// Shards is the number of independent probing sources (default 16).
	// It is part of the campaign's identity: changing it changes probe
	// timing and therefore outcomes; CPU counts never do.
	Shards int
	// BaseSource is the fault-layer identity of shard 0; shard s probes
	// as BaseSource+s.
	BaseSource uint64
}

// TargetOutcome classifies how a sweep left one target prefix.
type TargetOutcome uint8

const (
	// TargetProbedOK: at least one probe got a definitive answer (hit or
	// clean miss) — fresh data.
	TargetProbedOK TargetOutcome = iota
	// TargetGaveUp: every probe exhausted its retry budget; no
	// definitive answer this sweep.
	TargetGaveUp
	// TargetSkipped: the PoP's breaker was open at every opportunity;
	// the target was never probed and any prior knowledge is stale.
	TargetSkipped
)

// String names the outcome for reports.
func (o TargetOutcome) String() string {
	switch o {
	case TargetProbedOK:
		return "probed-ok"
	case TargetGaveUp:
		return "gave-up"
	case TargetSkipped:
		return "skipped"
	}
	return "unknown"
}

// SweepStats is the resilient sweep's bookkeeping: what the campaign spent
// and where it had to give up. The map keys are exactly the targets the
// sweep could attribute to a PoP.
type SweepStats struct {
	// Probes counts datagrams actually sent (first attempts + retries).
	Probes int
	// Retries counts second-and-later attempts.
	Retries int
	// GiveUps counts targets classified TargetGaveUp.
	GiveUps int
	// Skips counts probe opportunities dropped because a breaker was open.
	Skips int
	// BreakerOpens counts breaker open transitions across all shards.
	BreakerOpens int
	// PacerWaits counts first attempts the token-bucket pacer pushed past
	// their scheduled slot.
	PacerWaits int
	// BreakerTransitions counts breaker state transitions across all
	// shards, keyed "from>to" (e.g. "half-open>closed").
	BreakerTransitions map[string]int
	// Outcome classifies every target.
	Outcome map[topology.PrefixID]TargetOutcome
	// Attempts records datagrams spent per target.
	Attempts map[topology.PrefixID]int
}

func newSweepStats() *SweepStats {
	return &SweepStats{
		BreakerTransitions: map[string]int{},
		Outcome:            map[topology.PrefixID]TargetOutcome{},
		Attempts:           map[topology.PrefixID]int{},
	}
}

func (s *SweepStats) merge(o *SweepStats) {
	s.Probes += o.Probes
	s.Retries += o.Retries
	s.GiveUps += o.GiveUps
	s.Skips += o.Skips
	s.BreakerOpens += o.BreakerOpens
	s.PacerWaits += o.PacerWaits
	for k, v := range o.BreakerTransitions {
		s.BreakerTransitions[k] += v
	}
	for p, v := range o.Outcome {
		s.Outcome[p] = v
	}
	for p, v := range o.Attempts {
		s.Attempts[p] = v
	}
}

// classify records how the sweep left target p: answered of its probes got
// a definitive answer, and attempts datagrams were spent on it.
func (s *SweepStats) classify(p topology.PrefixID, answered, attempts int) {
	s.Attempts[p] = attempts
	switch {
	case answered > 0:
		s.Outcome[p] = TargetProbedOK
	case attempts > 0:
		s.Outcome[p] = TargetGaveUp
		s.GiveUps++
	default:
		s.Outcome[p] = TargetSkipped
	}
}

// countOpens adds a finished shard's breaker open transitions to the ledger.
func (s *SweepStats) countOpens(breakers map[int]*resilience.Breaker) {
	for _, b := range breakers {
		s.BreakerOpens += b.Opens
	}
}

// breakerTransitions is every reachable "from>to" edge, in the order the
// state machine cycles through them; reportObs walks this fixed list so the
// exposition never depends on map order.
var breakerTransitions = []string{
	"closed>open", "open>half-open", "half-open>closed", "half-open>open",
}

// The probers' families.
var (
	probeDatagrams = obs.NewCounter("itm_probe_datagrams_total", "Probe datagrams sent, by client mode.", "mode")
	probeFailed    = obs.NewCounter("itm_probe_failed_total",
		"Probe datagrams lost to transient faults, by client mode.", "mode")
	prefixesFound = obs.NewCounter("itm_probe_prefixes_found_total",
		"Prefixes discovered active (at least one cache hit).")
	probeRetries = obs.NewCounter("itm_probe_retries_total", "Second-and-later probe attempts, by sweep kind.", "sweep")
	probeGiveUps = obs.NewCounter("itm_probe_giveups_total",
		"Targets whose retry budget died without a definitive answer.", "sweep")
	breakerSkips = obs.NewCounter("itm_probe_breaker_skips_total",
		"Probe opportunities dropped because a PoP breaker was open.", "sweep")
	breakerOpens = obs.NewCounter("itm_probe_breaker_opens_total", "PoP circuit-breaker open transitions.", "sweep")
	pacerWaits   = obs.NewCounter("itm_probe_pacer_waits_total",
		"First attempts delayed past their schedule by the token-bucket pacer.", "sweep")
	breakerEdges = obs.NewCounter("itm_probe_breaker_transitions_total",
		"PoP circuit-breaker state transitions, by edge.", "transition")
	sweepTargets = obs.NewCounter("itm_probe_targets_total", "Sweep targets by final outcome.", "outcome", "sweep")
)

// reportObs folds one merged sweep ledger into the process metrics
// registry. It runs on the serial path after the shard merge, so every
// total is a pure function of the sweep result. The families keep their
// sweep label, though discovery is the one resilient sweep left.
func (s *SweepStats) reportObs() {
	const sweep = "discover"
	probeDatagrams.With("resilient").Add(uint64(s.Probes))
	probeRetries.With(sweep).Add(uint64(s.Retries))
	probeGiveUps.With(sweep).Add(uint64(s.GiveUps))
	breakerSkips.With(sweep).Add(uint64(s.Skips))
	breakerOpens.With(sweep).Add(uint64(s.BreakerOpens))
	pacerWaits.With(sweep).Add(uint64(s.PacerWaits))
	for _, tr := range breakerTransitions {
		breakerEdges.With(tr).Add(uint64(s.BreakerTransitions[tr]))
	}
	counts := map[TargetOutcome]int{}
	for _, o := range s.Outcome {
		counts[o]++
	}
	for _, o := range []TargetOutcome{TargetProbedOK, TargetGaveUp, TargetSkipped} {
		sweepTargets.With(o.String(), sweep).Add(uint64(counts[o]))
	}
}

func (rp *ResilientProber) shards() int {
	if rp.Shards < 1 {
		return 16
	}
	return rp.Shards
}

// shardState is one probing source's mutable world: its pacer, its per-PoP
// breakers, its copy of the retry policy, and what it measured over its cut
// of the targets — the discovery and the ledger.
type shardState struct {
	source   uint64
	pacer    *resilience.Pacer
	breakers map[int]*resilience.Breaker
	retry    resilience.Retryer
	d        *Discovery
	st       *SweepStats
}

func (rp *ResilientProber) newShard(i int) *shardState {
	burst := rp.Burst
	if burst < 1 {
		burst = 10
	}
	// A zero-value policy retries what a retry can cure.
	retry := rp.Retry
	if retry.Retryable == nil {
		retry.Retryable = faults.IsTransient
	}
	return &shardState{
		source:   rp.BaseSource + uint64(i),
		pacer:    resilience.NewPacer(rp.QPS, burst),
		breakers: map[int]*resilience.Breaker{},
		retry:    retry,
		d:        newDiscovery(0),
		st:       newSweepStats(),
	}
}

func (ss *shardState) breaker(pop int, cfg resilience.BreakerConfig) *resilience.Breaker {
	b := ss.breakers[pop]
	if b == nil {
		b = resilience.NewBreaker(cfg)
		// Breakers and ledgers are both shard-local, so the hook needs no
		// locking and the per-edge counts merge in shard order.
		st := ss.st
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
func (rp *ResilientProber) probe(ss *shardState, pop int, pp *dnssim.Probe, p topology.PrefixID, sched simtime.Time) (bool, bool, int) {
	br, st := ss.breaker(pop, rp.Breaker), ss.st
	var hit bool
	sent := 0
	key := uint64(p)
	grant := ss.pacer.Next(sched)
	if grant > sched {
		st.PacerWaits++
	}
	out := ss.retry.Do(grant, key, func(attempt int, at simtime.Time) error {
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
// target as probed-ok, gave-up, or skipped. The targets are cut across
// rp.shards() sources, each with its own pacer, breakers, ledger and span;
// the shards fold into the result here, serially and in shard order, and
// the merged ledger is reported to the metrics registry.
func (rp *ResilientProber) DiscoverPrefixes(top *topology.Topology, prefixes []topology.PrefixID, start simtime.Time, rounds int) (*Discovery, *SweepStats, error) {
	if rounds < 1 {
		rounds = 1
	}
	n := rp.shards()
	root := obs.StartSpan("cacheprobe.discover", start).
		SetAttrInt("targets", int64(len(prefixes))).
		SetAttrInt("shards", int64(n)).
		SetAttrInt("rounds", int64(rounds))
	out, stats := newDiscovery(0), newSweepStats()
	// A probe that exhausts its retry budget is an outcome in the ledger, not
	// an error, so today no shard fails.
	err := sweepShards(n, len(prefixes), func(ss *shardState) {
		out.merge(ss.d)
		stats.merge(ss.st)
	}, func(i, lo, hi int) (*shardState, error) {
		sp := root.Child("shard", start).SetOrder(i).SetAttrInt("shard", int64(i))
		ss := rp.newShard(i)
		rp.discover(ss, top, prefixes[lo:hi], start, rounds)
		ss.st.countOpens(ss.breakers)
		sp.SetAttrInt("datagrams", int64(ss.st.Probes)).End(start + 24)
		return ss, nil
	})
	if err != nil {
		return nil, nil, err
	}
	stats.reportObs()
	// Keep naive-Discovery units: Probes counts datagrams issued, Failed
	// the ones faults ate. Shards accumulated definitive answers in
	// d.Probes; the ledger has the datagram truth.
	answered := out.Probes
	out.Probes = stats.Probes
	out.Failed = stats.Probes - answered
	// The shards joined their lists in target order; one sort makes Found
	// ascend whatever order the targets came in.
	slices.Sort(out.Found)
	prefixesFound.Add(uint64(len(out.Found)))
	// Fleet-health history sample: the sweep just folded its per-agent
	// ledgers on this serial path, so the capture is deterministic.
	history.Observe("sweep", "sweep-discover", start+24)
	root.SetAttrInt("found", int64(len(out.Found))).
		SetAttrInt("datagrams", int64(stats.Probes)).
		End(start + 24)
	return out, stats, nil
}

// discover runs one source over its cut of the targets.
func (rp *ResilientProber) discover(ss *shardState, top *topology.Topology, targets []topology.PrefixID, start simtime.Time, rounds int) {
	grid := roundsGrid([]simtime.Time{start}, rounds)
	for _, p := range targets {
		t := rp.PR.Target(p)
		if t.Home == nil {
			continue
		}
		definitive := 0
		attempts := 0
	domains:
		for _, dom := range rp.Domains {
			pp := rp.PR.PrepareHome(&t, dom)
			for r := 0; r < rounds; r++ {
				hit, ok, att := rp.probe(ss, t.Home.ID, &pp, p, grid.Time(r))
				attempts += att
				if !ok {
					continue
				}
				definitive++
				ss.d.Probes++
				if hit {
					ss.d.Found = append(ss.d.Found, p)
					if asn, ok := top.OwnerOf(p); ok {
						ss.d.FoundASes[asn] = true
					}
					ss.d.ByPoP[t.Home.ID]++
					break domains
				}
			}
		}
		ss.st.classify(p, definitive, attempts)
	}
}
