package vantage

import (
	"errors"

	"itmap/internal/bgp"
	"itmap/internal/core"
	"itmap/internal/faults"
	"itmap/internal/latency"
	"itmap/internal/measure/tracer"
	"itmap/internal/obs"
	"itmap/internal/obs/history"
	"itmap/internal/order"
	"itmap/internal/parallel"
	"itmap/internal/randx"
	"itmap/internal/resilience"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/users"
)

// meshShards is the fixed shard count for mesh campaigns. Agents are
// assigned to shards by ID (never by worker count), each shard's probing
// runs serially in agent order, and shard tallies merge in shard order —
// so the MeshMatrix is byte-identical for any -workers setting, the same
// contract traffic.BuildMatrixWorkers holds.
const meshShards = 32

// Config shapes one mesh campaign.
type Config struct {
	// Agents is the fleet size (default 64).
	Agents int
	// Rounds is how many scheduled sweeps the campaign runs (default 2).
	Rounds int
	// Start is the simulated time of round 0.
	Start simtime.Time
	// Interval separates consecutive rounds (default 1 simulated hour).
	Interval simtime.Time
	// TargetsPerAgent is how many peer agents each agent probes per round
	// (default 4). Targets are drawn per (agent, round) from the identity
	// hash, so the pair schedule is a pure function of the seed.
	TargetsPerAgent int
	// PingsPerPair is the RTT probe count per measured pair (default 4).
	PingsPerPair int
	// RetryBudget bounds traceroute attempts per pair, including the
	// first (default 3).
	RetryBudget int
	// QPS is each agent's token-bucket pacing budget in probes per
	// simulated second (default 2; <= 0 disables pacing).
	QPS float64
	// Burst is the pacer's bucket size (default 8).
	Burst int
	// RoundBudget caps probe sends (traceroute attempts + pings) per
	// agent per round; pairs whose worst case does not fit are skipped
	// deterministically (default 64).
	RoundBudget int
	// Workers bounds the goroutines running shards (0 = one per CPU).
	// Results are identical for every setting.
	Workers int
	// Seed drives placement, schedules, faults, and jitter.
	Seed int64
	// Profile is the fault preset the campaign runs under (zero = none).
	Profile faults.Profile
}

func (c *Config) fill() {
	if c.Agents <= 0 {
		c.Agents = 64
	}
	if c.Rounds <= 0 {
		c.Rounds = 2
	}
	if c.Interval <= 0 {
		c.Interval = simtime.Hour
	}
	if c.TargetsPerAgent <= 0 {
		c.TargetsPerAgent = 4
	}
	if c.PingsPerPair <= 0 {
		c.PingsPerPair = 4
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 3
	}
	if c.QPS == 0 {
		c.QPS = 2
	}
	if c.Burst <= 0 {
		c.Burst = 8
	}
	if c.RoundBudget <= 0 {
		c.RoundBudget = 64
	}
}

// Stats is the campaign ledger: scheduling, probing, and casualty totals.
// Every field is an order-independent sum, so it is identical across runs
// and worker counts.
type Stats struct {
	// Agents is the fleet size; Rounds the sweeps run.
	Agents int
	Rounds int
	// Scheduled and Completed count per-round agent activations.
	Scheduled int
	Completed int
	// PairsMeasured counts (agent, target) probings (a pair measured by
	// both sides or in several rounds counts each time); SkippedBudget
	// counts probings dropped because the agent's round budget was spent,
	// SkippedSameAS target draws landing in the agent's own AS.
	PairsMeasured int
	SkippedBudget int
	SkippedSameAS int
	// Traceroutes, TraceRetries, Incomplete count path measurement work.
	Traceroutes  int
	TraceRetries int
	Incomplete   int
	// Pings and PingsLost count RTT probes and their casualties.
	Pings     int
	PingsLost int
}

// Campaign is a scheduled mesh sweep over a placed fleet.
type Campaign struct {
	top   *topology.Topology
	ap    *bgp.AllPaths
	lat   *latency.Model
	plan  *faults.Plan
	fleet *Fleet
	cfg   Config
}

// New assembles a campaign: places the fleet, derives the fault plan, and
// builds the RTT model, all from cfg.Seed.
func New(top *topology.Topology, ap *bgp.AllPaths, um *users.Model, cfg Config) *Campaign {
	cfg.fill()
	return &Campaign{
		top:   top,
		ap:    ap,
		lat:   latency.New(top, ap, cfg.Seed),
		plan:  faults.NewPlan(cfg.Profile, cfg.Seed),
		fleet: NewFleet(top, um, cfg.Agents, cfg.Seed),
		cfg:   cfg,
	}
}

// pairAgg accumulates one AS pair's measurements inside one shard.
type pairAgg struct {
	path     []topology.ASN
	holes    int // holes in path; -1 = no path seen yet
	probes   int
	lost     int
	sumRTT   float64
	minRTT   float64
	maxRTT   float64
	samples  int
	complete bool
}

// better reports whether candidate (path, holes) beats the current best:
// fewer holes first, then lexicographically smaller hops — a total order,
// so the winner is independent of observation order.
func (a *pairAgg) better(path []topology.ASN, holes int) bool {
	if a.holes < 0 {
		return path != nil
	}
	if path == nil {
		return false
	}
	if holes != a.holes {
		return holes < a.holes
	}
	if len(path) != len(a.path) {
		return len(path) < len(a.path)
	}
	for i := range path {
		if path[i] != a.path[i] {
			return path[i] < a.path[i]
		}
	}
	return false
}

func (a *pairAgg) observePath(path []topology.ASN, holes int) {
	if a.better(path, holes) {
		a.path, a.holes = path, holes
	}
	if path != nil && holes == 0 {
		a.complete = true
	}
}

func (a *pairAgg) observeRTT(ms float64) {
	if a.samples == 0 || ms < a.minRTT {
		a.minRTT = ms
	}
	if a.samples == 0 || ms > a.maxRTT {
		a.maxRTT = ms
	}
	a.sumRTT += ms
	a.samples++
}

// mergeFrom folds o into a. Called in shard order only.
func (a *pairAgg) mergeFrom(o *pairAgg) {
	a.observePath(o.path, o.holes)
	if o.complete {
		a.complete = true
	}
	a.probes += o.probes
	a.lost += o.lost
	if o.samples > 0 {
		if a.samples == 0 || o.minRTT < a.minRTT {
			a.minRTT = o.minRTT
		}
		if a.samples == 0 || o.maxRTT > a.maxRTT {
			a.maxRTT = o.maxRTT
		}
		a.sumRTT += o.sumRTT
		a.samples += o.samples
	}
}

// shardState is one shard's private world: its agents' pacers and its
// tally map. Only the shard's goroutine touches it during a round, and
// rounds are separated by the worker pool's barrier, so no locks.
type shardState struct {
	agents []int // agent IDs owned by this shard, ascending
	pacers map[int]*resilience.Pacer
	aggs   map[uint64]*pairAgg
	stats  Stats
}

// The fleet's families.
var (
	meshAgents     = obs.NewCounter("itm_mesh_agents_total", "Mesh agents placed into eyeball ASes across campaigns.")
	meshScheduled  = obs.NewCounter("itm_mesh_agents_scheduled_total", "Per-round mesh agent activations scheduled.")
	meshCompleted  = obs.NewCounter("itm_mesh_agents_completed_total", "Per-round mesh agent activations completed.")
	meshRounds     = obs.NewCounter("itm_mesh_rounds_total", "Mesh campaign rounds run.")
	meshPings      = obs.NewCounter("itm_mesh_pings_total", "Mesh RTT pings issued, by outcome.", "outcome")
	meshTraces     = obs.NewCounter("itm_mesh_traceroutes_total", "Mesh traceroutes issued (including retries).")
	meshPairs      = obs.NewCounter("itm_mesh_pairs_total", "AS pairs materialized into mesh matrices.")
	meshIncomplete = obs.NewCounter("itm_mesh_pairs_incomplete_total",
		"AS pairs materialized without a complete traceroute path.")
)

// RegisterMetrics declares the fleet's metric families so a process that
// never runs a campaign (itm-serve in snapshot mode) still exposes their
// HELP/TYPE headers.
func RegisterMetrics() {
	obs.Declare(meshAgents, meshScheduled, meshCompleted, meshRounds, meshPings, meshTraces, meshPairs, meshIncomplete)
}

// pingOutcome maps a probe fault to its bounded outcome label.
func pingOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, faults.ErrTimeout):
		return "timeout"
	case errors.Is(err, faults.ErrServfail):
		return "servfail"
	case errors.Is(err, faults.ErrThrottled):
		return "throttled"
	default:
		return "unreachable"
	}
}

// Run executes the campaign and returns the assembled mesh matrix plus the
// ledger. The document (and therefore its canonical ITMB encoding) is a
// pure function of (world, Config minus Workers).
func (c *Campaign) Run() (*core.MeshDocument, *Stats) {
	n := len(c.fleet.Agents)
	shards := make([]*shardState, meshShards)
	for s := range shards {
		shards[s] = &shardState{pacers: map[int]*resilience.Pacer{}, aggs: map[uint64]*pairAgg{}}
	}
	for id := 0; id < n; id++ {
		s := id % meshShards
		shards[s].agents = append(shards[s].agents, id)
		shards[s].pacers[id] = resilience.NewPacer(c.cfg.QPS, c.cfg.Burst)
	}
	meshAgents.Add(uint64(n))

	for r := 0; r < c.cfg.Rounds; r++ {
		at := c.cfg.Start + simtime.Time(r)*c.cfg.Interval
		root := obs.StartSpan("vantage.mesh_round", at).
			SetAttrInt("round", int64(r)).SetAttrInt("agents", int64(n)).
			SetAttrInt("shards", meshShards)
		parallel.ForEach(meshShards, c.cfg.Workers, func(s int) {
			sh := shards[s]
			sp := root.Child("shard", at).SetOrder(s).SetAttrInt("shard", int64(s))
			before := sh.stats.PairsMeasured
			for _, id := range sh.agents {
				c.runAgentRound(sh, id, r, at)
			}
			sp.SetAttrInt("pairs_measured", int64(sh.stats.PairsMeasured-before)).End(at)
		})
		root.End(at)
		meshRounds.Inc()
	}

	// Shard-ordered fold into one tally, then the canonical document.
	total := map[uint64]*pairAgg{}
	st := &Stats{Agents: n, Rounds: c.cfg.Rounds}
	for _, sh := range shards {
		for _, key := range order.Keys(sh.aggs) {
			if agg, ok := total[key]; ok {
				agg.mergeFrom(sh.aggs[key])
			} else {
				total[key] = sh.aggs[key]
			}
		}
		st.Scheduled += sh.stats.Scheduled
		st.Completed += sh.stats.Completed
		st.PairsMeasured += sh.stats.PairsMeasured
		st.SkippedBudget += sh.stats.SkippedBudget
		st.SkippedSameAS += sh.stats.SkippedSameAS
		st.Traceroutes += sh.stats.Traceroutes
		st.TraceRetries += sh.stats.TraceRetries
		st.Incomplete += sh.stats.Incomplete
		st.Pings += sh.stats.Pings
		st.PingsLost += sh.stats.PingsLost
	}

	doc := &core.MeshDocument{
		Version: 1,
		Agents:  n,
		Rounds:  c.cfg.Rounds,
		Profile: c.plan.Profile().Name,
	}
	if doc.Profile == "" {
		doc.Profile = "none"
	}
	doc.Pairs = make([]core.MeshPairDocument, 0, len(total))
	for _, key := range order.Keys(total) {
		agg := total[key]
		p := core.MeshPairDocument{
			Lo:       uint32(key >> 32),
			Hi:       uint32(key & 0xffffffff),
			Complete: agg.complete,
			Probes:   agg.probes,
			Lost:     agg.lost,
		}
		if agg.path != nil {
			p.Path = make([]uint32, len(agg.path))
			for i, hop := range agg.path {
				p.Path[i] = uint32(hop)
			}
		}
		if agg.samples > 0 {
			p.MinRTT = agg.minRTT
			p.MeanRTT = agg.sumRTT / float64(agg.samples)
			p.MaxRTT = agg.maxRTT
		}
		if agg.probes > 0 {
			p.Confidence = float64(agg.probes-agg.lost) / float64(agg.probes)
			if !agg.complete {
				p.Confidence *= 0.5
			}
		}
		doc.Pairs = append(doc.Pairs, p)
	}
	incomplete := 0
	for _, p := range doc.Pairs {
		if !p.Complete {
			incomplete++
		}
	}
	meshPairs.Add(uint64(len(doc.Pairs)))
	meshIncomplete.Add(uint64(incomplete))
	// Fleet-health history sample at the campaign's last round — a serial
	// point after the shard fold, so the capture is deterministic.
	end := c.cfg.Start
	if c.cfg.Rounds > 0 {
		end += simtime.Time(c.cfg.Rounds-1) * c.cfg.Interval
	}
	history.Observe("mesh", "mesh-"+doc.Profile, end)
	return doc, st
}

// runAgentRound fires one agent's probes for one round.
func (c *Campaign) runAgentRound(sh *shardState, id, round int, at simtime.Time) {
	sh.stats.Scheduled++
	meshScheduled.Inc()
	agent := &c.fleet.Agents[id]
	n := len(c.fleet.Agents)
	budget := c.cfg.RoundBudget
	// Worst case per pair: every traceroute attempt plus every ping.
	pairCost := c.cfg.RetryBudget + c.cfg.PingsPerPair
	for j := 0; j < c.cfg.TargetsPerAgent && n > 1; j++ {
		pick := int(randx.Hash64(c.fleet.Seed, tagTarget, uint64(id), uint64(round), uint64(j)) % uint64(n-1))
		if pick >= id {
			pick++
		}
		target := &c.fleet.Agents[pick]
		if target.AS == agent.AS {
			sh.stats.SkippedSameAS++
			continue
		}
		if budget < pairCost {
			sh.stats.SkippedBudget++
			continue
		}
		budget -= c.measurePair(sh, agent, target, round, at)
		sh.stats.PairsMeasured++
	}
	sh.stats.Completed++
	meshCompleted.Inc()
}

// measurePair probes one AS pair from agent toward target: a resilient
// traceroute of the canonical direction plus a burst of paced RTT pings.
// Returns the probe sends consumed.
func (c *Campaign) measurePair(sh *shardState, agent, target *Agent, round int, at simtime.Time) int {
	lo, hi := agent.AS, target.AS
	if hi < lo {
		lo, hi = hi, lo
	}
	key := core.MeshKey(uint32(lo), uint32(hi))
	agg := sh.aggs[key]
	if agg == nil {
		agg = &pairAgg{holes: -1}
		sh.aggs[key] = agg
	}
	pacer := sh.pacers[agent.ID]
	spent := 0

	// Path: the canonical direction lo→hi (measurable from either side, as
	// with Reverse Traceroute), re-measured with backoff while holed.
	retry := resilience.Retryer{
		Budget:    c.cfg.RetryBudget,
		Backoff:   resilience.Backoff{Seed: c.fleet.Seed, Jitter: 0.5},
		Retryable: faults.IsTransient,
	}
	var best []topology.ASN
	bestHoles := -1
	out := retry.Do(pacer.Next(at), key, func(attempt int, t simtime.Time) error {
		path := tracer.TracerouteFaulty(c.ap, lo, hi, c.plan, attempt, t)
		sh.stats.Traceroutes++
		if attempt > 0 {
			sh.stats.TraceRetries++
		}
		meshTraces.Inc()
		if path == nil {
			return nil // unreachable is an answer, not a fault
		}
		holes := 0
		for _, hop := range path {
			if hop == tracer.Hole {
				holes++
			}
		}
		if bestHoles < 0 || holes < bestHoles {
			best, bestHoles = path, holes
		}
		if holes > 0 {
			return faults.ErrTimeout
		}
		return nil
	})
	spent += out.Attempts
	if out.Err != nil {
		sh.stats.Incomplete++
	}
	agg.observePath(best, bestHoles)

	// RTT pings: paced, symmetric in the pair, each one a fresh datagram
	// against the fault substrate.
	pop := int(key % 61)
	source := randx.Hash64(c.fleet.Seed, tagAgent, uint64(agent.ID))
	t := out.End
	for i := 0; i < c.cfg.PingsPerPair; i++ {
		t = pacer.Next(t)
		spent++
		sh.stats.Pings++
		agg.probes++
		err := c.plan.ProbeFault(pop, source, randx.Hash64(key, uint64(round), uint64(i)), i, t)
		if err == nil {
			seq := int(randx.Hash64(c.fleet.Seed, tagSeq, key, uint64(round), uint64(agent.ID), uint64(i)) >> 34)
			if ms, ok := c.lat.PairRTTms(agent.Prefix, target.Prefix, seq); ok {
				agg.observeRTT(ms)
			} else {
				err = errors.New("vantage: no latency path")
			}
		}
		meshPings.With(pingOutcome(err)).Inc()
		if err != nil {
			sh.stats.PingsLost++
			agg.lost++
		}
	}
	return spent
}
