package cacheprobe

// The serial prober model: what each sweep in this package measures, stated
// once and plainly, for the sweeps to be checked against. It walks the
// targets in order on one goroutine — no fan-out, no sampling grid, no
// merge — and issues every probe as one dnssim.Probe.At at an instant it
// computes itself. The resilient client's rules are written out below: how
// an attempt's outcome is classified (a table), what the PoP breaker makes
// of it (a table), and how the token bucket paces first attempts. Only the
// backoff schedule, resilience.Backoff.Delay, a pure function of its config,
// is shared with the code under test.
//
// TestModelSweeps runs the naive sweeps and the resilient discovery on one
// goroutine and on several over seeded cases — every fault preset and seeded
// random fault profiles — and requires each to equal the model on
// Discovery, HitRates and SweepStats, per-target outcomes and attempts
// included; a discovery's Found is the sorted list of what it found. The naive multi-day discovery must equal one model discovery
// per day, day by day, over one, two and three consecutive days. A failing case shrinks to one line, the form the repros under
// testdata/model/ are committed in; TestModelRepros replays them.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"itmap/internal/dnssim"
	"itmap/internal/faults"
	"itmap/internal/order"
	"itmap/internal/randx"
	"itmap/internal/resilience"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/world"
)

// attemptRule is what one attempt's outcome does.
type attemptRule struct {
	datagram  bool // a packet left the source
	breakerOK bool // the PoP breaker records a success
	// retry: the attempt is lost but curable. The naive prober counts it
	// failed and goes on; the resilient one backs off and tries again.
	retry bool
}

// errSkipped stands for an attempt the PoP breaker did not let through.
var errSkipped = errors.New("model: breaker open")

// attemptRules classifies every outcome an attempt can have. Only silence
// feeds the breaker as a failure: a throttle is the source's problem and a
// SERVFAIL one query's. Any error not listed (NXDOMAIN, a domain without
// per-prefix scoping) is permanent: the naive sweep stops with it, the
// resilient probe gives up on it.
var attemptRules = map[error]attemptRule{
	nil:                 {datagram: true, breakerOK: true},
	faults.ErrTimeout:   {datagram: true, retry: true},
	faults.ErrServfail:  {datagram: true, breakerOK: true, retry: true},
	faults.ErrThrottled: {datagram: true, breakerOK: true, retry: true},
	errSkipped:          {retry: true},
}

func ruleFor(err error) attemptRule {
	if r, ok := attemptRules[err]; ok {
		return r
	}
	return attemptRule{datagram: true, breakerOK: true}
}

// breakerRule is the PoP breaker. An attempt let through moves it:
//
//	state       succeeded   failed
//	closed      closed      closed, one more consecutive failure; open at FailThreshold
//	half-open   closed      open, the cooldown restarting
//
// and an open or half-open breaker lets an attempt through only at or after
// the instant it opened plus Cooldown; the first one it lets through turns
// open into half-open.
var breakerRule = map[resilience.State][2]resilience.State{
	// {after a success, after a failure}
	resilience.StateClosed:   {resilience.StateClosed, resilience.StateClosed},
	resilience.StateHalfOpen: {resilience.StateClosed, resilience.StateOpen},
}

type modelBreaker struct {
	state resilience.State
	fails int
	since simtime.Time
}

// modelSource is one probing source: its token bucket and its breakers.
type modelSource struct {
	id       uint64
	primed   bool
	tokens   float64
	last     simtime.Time
	breakers map[int]*modelBreaker
}

type model struct{ w *world.World }

// discover is the naive DiscoverPrefixes: every domain at every round
// instant until the prefix's first hit. Every probe the cache answers is
// one lookup, and a hit one hit. Found comes back sorted.
func (m *model) discover(domains []string, source uint64, targets []topology.PrefixID, start simtime.Time, rounds int) (*Discovery, error) {
	rounds = max(rounds, 1)
	d := newDiscovery(0)
	for _, p := range targets {
		pop := m.w.PR.HomePoP(p)
		if pop == nil {
			continue
		}
	domains:
		for _, dom := range domains {
			probe := m.w.PR.Prepare(pop.ID, dom, p)
			for r := 0; r < rounds; r++ {
				hit, err := probe.At(start+simtime.Time(24*float64(r)/float64(rounds)), dnssim.ProbeOpts{Source: source})
				d.Probes++
				countLookup(&d.lookups, hit, err)
				switch {
				case err != nil && !ruleFor(err).retry:
					return nil, err
				case err != nil:
					d.Failed++
				case hit:
					m.found(d, p, pop.ID)
					break domains
				}
			}
		}
	}
	slices.Sort(d.Found)
	return d, nil
}

// countLookup tallies one probe into l: answered unless lost or refused.
func countLookup(l *dnssim.Lookups, hit bool, err error) {
	if err == nil {
		l.Answered++
		if hit {
			l.Hits++
		}
	}
}

func (m *model) found(d *Discovery, p topology.PrefixID, pop int) {
	d.Found = append(d.Found, p)
	if asn, ok := m.w.Top.OwnerOf(p); ok {
		d.FoundASes[asn] = true
	}
	d.ByPoP[pop]++
}

// hitRates is the naive MeasureHitRates: one probe per interval across the
// day, lost probes kept in the denominator.
func (m *model) hitRates(source uint64, targets []topology.PrefixID, domain string, start, interval simtime.Time) (*HitRates, error) {
	if interval <= 0 {
		interval = 5 * simtime.Minute
	}
	n := max(int(24/float64(interval)), 1)
	hr := newHitRates(0, n)
	for _, p := range targets {
		pop := m.w.PR.HomePoP(p)
		if pop == nil {
			continue
		}
		probe := m.w.PR.Prepare(pop.ID, domain, p)
		hits := 0
		for r := 0; r < n; r++ {
			hit, err := probe.At(start+simtime.Time(float64(r))*interval, dnssim.ProbeOpts{Source: source})
			countLookup(&hr.lookups, hit, err)
			switch {
			case err != nil && !ruleFor(err).retry:
				return nil, err
			case err != nil:
				hr.Failed++
			case hit:
				hits++
			}
		}
		hr.ByPrefix[p] = float64(hits) / float64(n)
		if asn, ok := m.w.Top.OwnerOf(p); ok {
			hr.ByAS[asn] += float64(hits)
		}
	}
	return hr, nil
}

// resilient is ResilientProber.DiscoverPrefixes. Target i belongs to source
// BaseSource + i/c, c being the target count over Shards rounded up, and
// every source keeps its own bucket and breakers from its first target to
// its last.
func (m *model) resilient(rp *ResilientProber, targets []topology.PrefixID, start simtime.Time, rounds int) (*Discovery, *SweepStats) {
	rounds = max(rounds, 1)
	shards := rp.Shards
	if shards < 1 {
		shards = 16
	}
	per := (len(targets) + shards - 1) / shards
	d, st := newDiscovery(0), newSweepStats()
	sources := map[int]*modelSource{}
	answered := 0
	for i, p := range targets {
		src := sources[i/per]
		if src == nil {
			src = &modelSource{id: rp.BaseSource + uint64(i/per), breakers: map[int]*modelBreaker{}}
			sources[i/per] = src
		}
		pop := m.w.PR.HomePoP(p)
		if pop == nil {
			continue
		}
		definitive, attempts := 0, 0
	domains:
		for _, dom := range rp.Domains {
			probe := m.w.PR.Prepare(pop.ID, dom, p)
			for r := 0; r < rounds; r++ {
				hit, ok, sent := m.probe(rp, src, st, pop.ID, &probe, p, start+simtime.Time(24*float64(r)/float64(rounds)))
				attempts += sent
				if !ok {
					continue
				}
				definitive++
				if hit {
					m.found(d, p, pop.ID)
					break domains
				}
			}
		}
		answered += definitive
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
	}
	d.Probes, d.Failed = st.Probes, st.Probes-answered
	slices.Sort(d.Found)
	return d, st
}

// probe is one logical resilient probe scheduled at sched: the bucket grants
// the first attempt, then attempts follow the rules until one is answered,
// one is permanent, or the retry budget is spent, each retry one backoff
// delay after the attempt before it. It reports the answer, whether there
// was one, and the datagrams sent.
func (m *model) probe(rp *ResilientProber, src *modelSource, st *SweepStats, pop int, probe *dnssim.Probe, p topology.PrefixID, sched simtime.Time) (hit, answered bool, sent int) {
	t := src.pace(sched, rp.QPS, rp.Burst)
	if t > sched {
		st.PacerWaits++
	}
	cfg := rp.Breaker
	if cfg.FailThreshold < 1 {
		cfg.FailThreshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 30 * simtime.Minute
	}
	br := src.breakers[pop]
	if br == nil {
		br = &modelBreaker{}
		src.breakers[pop] = br
	}
	edge := func(to resilience.State) {
		st.BreakerTransitions[br.state.String()+">"+to.String()]++
		if to == resilience.StateOpen {
			st.BreakerOpens++
			br.since = t
		}
		br.state = to
	}
	budget := max(rp.Retry.Budget, 1)
	for a := 0; a < budget; a++ {
		err := errSkipped
		if br.state == resilience.StateClosed || t >= br.since+cfg.Cooldown {
			if br.state == resilience.StateOpen {
				edge(resilience.StateHalfOpen)
			}
			hit, err = probe.At(t, dnssim.ProbeOpts{Source: src.id, Attempt: a})
		}
		rule := ruleFor(err)
		if rule.datagram {
			sent++
			st.Probes++
			if sent > 1 {
				st.Retries++
			}
			next := breakerRule[br.state][0]
			if rule.breakerOK {
				br.fails = 0
			} else {
				br.fails, next = br.fails+1, breakerRule[br.state][1]
				if br.fails >= cfg.FailThreshold {
					next = resilience.StateOpen
				}
			}
			if next != br.state {
				edge(next)
			}
		} else {
			st.Skips++
		}
		switch {
		case err == nil:
			return hit, true, sent
		case !rule.retry:
			return false, false, sent
		case a+1 < budget:
			t += rp.Retry.Backoff.Delay(uint64(p), a)
		}
	}
	return false, false, sent
}

// pace is the source's token bucket: burst tokens (10 unless set), refilled
// at qps per simulated second. A first attempt takes a token at its
// scheduled instant or waits until one has accrued, and never fires before
// the previous grant. A qps of 0 paces nothing.
func (s *modelSource) pace(t simtime.Time, qps float64, burst int) simtime.Time {
	if qps <= 0 {
		return t
	}
	if burst < 1 {
		burst = 10
	}
	if !s.primed {
		s.primed, s.last, s.tokens = true, t, float64(burst)
	}
	t = max(t, s.last)
	s.tokens = min(float64(burst), s.tokens+qps*float64(t-s.last)*3600)
	if s.tokens < 1 {
		t += simtime.Seconds((1 - s.tokens) / qps)
		s.tokens = 1
	}
	s.tokens--
	s.last = t
	return t
}

// sweepCase is one configuration the sweeps and the model both run, in the
// one-line form of caseFormat.
type sweepCase struct {
	World    int64   // world.Tiny seed
	Plan     string  // none, calm, lossy, hostile, or random: a profile drawn from PlanSeed
	PlanSeed int64   // the fault plan's seed
	Lo, Hi   int     // the targets: AllPrefixes()[Lo:Hi]
	Domains  int     // ECSDomains()[:Domains] ...
	Bad      int     // ... and, if 1, a domain that does not resolve after them
	Rounds   int     // discovery rounds
	Start    float64 // discovery start
	Interval float64 // hit-rate cadence
	Workers  int     // the CPUs (naive) and workers (resilient) checked beside 1
	// The resilient prober's shard count, bucket, retry budget and breaker.
	Shards, Burst, Budget, Threshold int
	QPS, Cooldown                    float64
}

const caseFormat = "world=%d plan=%s/%d targets=%d:%d domains=%d+%d rounds=%d start=%g interval=%g " +
	"shards=%d qps=%g burst=%d budget=%d threshold=%d cooldown=%g workers=%d"

func (c sweepCase) String() string {
	return fmt.Sprintf(caseFormat, c.World, c.Plan, c.PlanSeed, c.Lo, c.Hi, c.Domains, c.Bad, c.Rounds, c.Start,
		c.Interval, c.Shards, c.QPS, c.Burst, c.Budget, c.Threshold, c.Cooldown, c.Workers)
}

func parseCase(line string) (c sweepCase, err error) {
	// %s stops at white space only, so the plan's name and seed are one word.
	var plan string
	_, err = fmt.Sscanf(strings.Replace(line, "/", " ", 1), strings.Replace(caseFormat, "%s/", "%s ", 1),
		&c.World, &plan, &c.PlanSeed, &c.Lo, &c.Hi, &c.Domains, &c.Bad, &c.Rounds, &c.Start,
		&c.Interval, &c.Shards, &c.QPS, &c.Burst, &c.Budget, &c.Threshold, &c.Cooldown, &c.Workers)
	c.Plan = plan
	return c, err
}

// genCase draws a case: small target windows, few domains, every preset
// and random profiles, budgets and cooldowns from none to plenty, buckets
// from unpaced to starved.
func genCase(seed int64) sweepCase {
	rng := randx.New(seed)
	lo := rng.Intn(4000)
	pick := func(xs ...float64) float64 { return xs[rng.Intn(len(xs))] }
	return sweepCase{
		World: 9, Plan: []string{"none", "calm", "lossy", "hostile", "random", "random"}[rng.Intn(6)], PlanSeed: seed,
		Lo: lo, Hi: lo + rng.Intn(500), Domains: 1 + rng.Intn(5), Bad: int(pick(0, 0, 0, 1)), Rounds: rng.Intn(5),
		Start: pick(0, 3, 24, 7.25), Interval: pick(0, 0.25, 1, 25),
		Shards: rng.Intn(24), QPS: pick(0, 0.05, 2, 25), Burst: rng.Intn(12), Budget: rng.Intn(7),
		Threshold: rng.Intn(7), Cooldown: pick(0, 1.0/6, 1, 4), Workers: 2 + rng.Intn(6),
	}
}

// plan is the case's fault plan; random draws every rate of a profile.
func (c sweepCase) plan() *faults.Plan {
	prof, ok := faults.ByName(c.Plan)
	if c.Plan == "random" {
		rng := randx.New(c.PlanSeed)
		prof, ok = faults.Profile{
			Name: "random", PacketLoss: rng.Float64() * 0.4, ServfailRate: rng.Float64() * 0.2,
			ThrottleWindow: simtime.Time(0.5 + rng.Float64()*3), ThrottleTripProb: rng.Float64() * 0.7,
			BanDuration:   simtime.Time(rng.Float64() * 2),
			PoPOutageProb: rng.Float64() * 0.7, PoPOutageDuration: simtime.Time(rng.Float64() * 4),
		}, true
	}
	if !ok {
		panic("unknown fault profile " + c.Plan)
	}
	return faults.NewPlan(prof, c.PlanSeed)
}

var modelWorlds = map[int64]*world.World{}

// run runs every sweep of the case beside the model and returns the first
// disagreement. seen, if not nil, counts what the case exercised.
func (c sweepCase) run(seen map[string]int) error {
	w := modelWorlds[c.World]
	if w == nil {
		w = world.Build(world.Tiny(c.World))
		modelWorlds[c.World] = w
	}
	w.PR.SetFaultPlan(c.plan())
	defer w.PR.SetFaultPlan(nil)
	all := w.Top.AllPrefixes()
	targets := all[min(c.Lo, len(all)):min(c.Hi, len(all))]
	ecs := w.Cat.ECSDomains()
	domains := ecs[:min(c.Domains, len(ecs))]
	if c.Bad == 1 {
		domains = append(domains[:len(domains):len(domains)], "nxdomain.example")
	}
	const source = 0x5eed
	m := &model{w: w}
	// Discovery on consecutive days from the case's start: day 0 is the
	// single-day sweep's.
	starts := []simtime.Time{simtime.Time(c.Start), simtime.Time(c.Start) + 24, simtime.Time(c.Start) + 48}
	wantDays, wantDayErrs := make([]*Discovery, len(starts)), make([]error, len(starts))
	for d, start := range starts {
		wantDays[d], wantDayErrs[d] = m.discover(domains, source, targets, start, c.Rounds)
	}
	wantD, wantDErr := wantDays[0], wantDayErrs[0]
	wantHR, wantHRErr := m.hitRates(source, targets, ecs[len(ecs)/2], 0, simtime.Time(c.Interval))
	rp := &ResilientProber{
		PR: w.PR, Domains: domains,
		Retry: resilience.Retryer{Budget: c.Budget, Backoff: resilience.Backoff{
			Base: 5 * simtime.Minute, Factor: 3, Cap: 2 * simtime.Hour, Jitter: 0.5, Seed: uint64(c.PlanSeed),
		}},
		Breaker: resilience.BreakerConfig{FailThreshold: c.Threshold, Cooldown: simtime.Time(c.Cooldown)},
		QPS:     c.QPS, Burst: c.Burst, Shards: c.Shards, BaseSource: 0x900d,
	}
	wantRD, wantST := m.resilient(rp, targets, simtime.Time(c.Start), c.Rounds)
	pb := &Prober{PR: w.PR, Domains: domains, Source: source}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, workers := range []int{1, c.Workers} {
		runtime.GOMAXPROCS(workers)
		d, err := pb.DiscoverPrefixes(w.Top, targets, simtime.Time(c.Start), c.Rounds)
		if diff := differ(d, err, wantD, wantDErr); diff != "" {
			return fmt.Errorf("naive discovery on %d CPUs: %s", workers, diff)
		}
		for n := 1; n <= len(starts); n++ {
			days, err := pb.DiscoverDays(w.Top, targets, starts[:n], c.Rounds)
			if diff := differDays(days, err, wantDays[:n], wantDayErrs[:n]); diff != "" {
				return fmt.Errorf("naive discovery of %d days on %d CPUs: %s", n, workers, diff)
			}
		}
		hr, err := pb.MeasureHitRates(w.Top, targets, ecs[len(ecs)/2], 0, simtime.Time(c.Interval))
		if diff := differ(hr, err, wantHR, wantHRErr); diff != "" {
			return fmt.Errorf("naive hit rates on %d CPUs: %s", workers, diff)
		}
		rp.Workers = workers
		rd, st, err := rp.DiscoverPrefixes(w.Top, targets, simtime.Time(c.Start), c.Rounds)
		if diff := differ(rd, err, wantRD, nil); diff != "" {
			return fmt.Errorf("resilient discovery with %d workers: %s", workers, diff)
		}
		if diff := ledgerDiff(st, wantST); diff != "" {
			return fmt.Errorf("resilient ledger with %d workers: %s", workers, diff)
		}
	}
	if seen != nil {
		for k, v := range map[string]int{"found": len(wantRD.Found), "naive-lost": wantHR.Failed,
			"retries": wantST.Retries, "give-ups": wantST.GiveUps, "skips": wantST.Skips,
			"opens": wantST.BreakerOpens, "recloses": wantST.BreakerTransitions["half-open>closed"],
			"pacer-waits": wantST.PacerWaits} {
			seen[k] += v
		}
		if wantDErr != nil {
			seen["naive-stopped"]++
		}
		if wantDayErrs[0] == nil && wantDayErrs[2] != nil {
			seen["later-day-stopped"]++
		}
	}
	return nil
}

// differ names how a sweep's result or error differs from the model's, or
// returns "".
func differ[T any](got *T, err error, want *T, wantErr error) string {
	switch {
	case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
		return fmt.Sprintf("error %v, the model's %v", err, wantErr)
	case !reflect.DeepEqual(got, want):
		return fmt.Sprintf("got %s, the model %s", summary(got), summary(want))
	}
	return ""
}

// differDays names how a multi-day discovery differs from the model's
// discoveries of its days, or returns "": its error is the earliest failing
// day's, and without one every day equals the model's.
func differDays(got []*Discovery, err error, want []*Discovery, wantErrs []error) string {
	var wantErr error
	for _, e := range wantErrs {
		if e != nil {
			wantErr = e
			break
		}
	}
	switch {
	case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
		return fmt.Sprintf("error %v, the model's %v", err, wantErr)
	case err != nil && got != nil:
		return fmt.Sprintf("%d days beside the error", len(got))
	case err != nil:
		return ""
	case len(got) != len(want):
		return fmt.Sprintf("%d days, the model %d", len(got), len(want))
	}
	for d := range want {
		if diff := differ(got[d], nil, want[d], nil); diff != "" {
			return fmt.Sprintf("day %d: %s", d, diff)
		}
	}
	return ""
}

// summary is a result's totals, enough to tell two apart without printing
// every key.
func summary(r any) string {
	switch r := r.(type) {
	case *Discovery:
		return fmt.Sprintf("%d found (sorted %v) over %d ASes and %d PoPs, %d probes, %d failed",
			len(r.Found), slices.IsSorted(r.Found), len(r.FoundASes), len(r.ByPoP), r.Probes, r.Failed)
	case *HitRates:
		return fmt.Sprintf("%d rates summing to %v over %d ASes, %d per prefix, %d failed",
			len(r.ByPrefix), order.SumValues(r.ByPrefix), len(r.ByAS), r.ProbesPerPrefix, r.Failed)
	}
	return fmt.Sprint(r)
}

// ledgerDiff names the first difference between two ledgers, or returns "".
func ledgerDiff(got, want *SweepStats) string {
	g, w := *got, *want
	g.Outcome, w.Outcome, g.Attempts, w.Attempts = nil, nil, nil, nil
	if !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("totals %+v, the model's %+v", g, w)
	}
	for p, o := range want.Outcome {
		if got.Outcome[p] != o || got.Attempts[p] != want.Attempts[p] {
			return fmt.Sprintf("target %v: %v after %d datagrams, the model's %v after %d", p, got.Outcome[p], got.Attempts[p], o, want.Attempts[p])
		}
	}
	if len(got.Outcome) != len(want.Outcome) || len(got.Attempts) != len(want.Attempts) {
		return fmt.Sprintf("%d targets classified, the model %d", len(got.Outcome), len(want.Outcome))
	}
	return ""
}

// shrink makes a failing case smaller while it still fails: fewer targets,
// domains, rounds, shards and attempts, the naive domain dropped.
func shrink(c sweepCase) sweepCase {
	for {
		n := c.Hi - c.Lo
		smaller := []sweepCase{c, c, c, c, c, c, c, c, c}
		smaller[0].Hi = c.Lo + n/2
		smaller[1].Lo = c.Lo + n/2
		smaller[2].Hi--
		smaller[3].Lo++
		smaller[4].Domains--
		smaller[5].Bad = 0
		smaller[6].Rounds--
		smaller[7].Shards /= 2
		smaller[8].Budget--
		progress := false
		for _, s := range smaller {
			if s != c && s.Lo <= s.Hi && s.Domains >= 0 && s.Rounds >= 0 && s.Budget >= 0 && s.run(nil) != nil {
				c, progress = s, true
				break
			}
		}
		if !progress {
			return c
		}
	}
}

// TestModelSweeps checks every sweep against the model on the fault presets
// at the sizes the package's other tests use, and on seeded random cases,
// and shrinks the first disagreement to a repro.
func TestModelSweeps(t *testing.T) {
	var cases []sweepCase
	for _, plan := range []string{"none", "calm", "lossy", "hostile"} {
		cases = append(cases, sweepCase{World: 9, Plan: plan, PlanSeed: 3, Hi: 3000, Domains: 4, Rounds: 4, Start: 3,
			Interval: 0.5, Shards: 16, QPS: 25, Budget: 4, Threshold: 5, Cooldown: 1.0 / 6, Workers: 4})
	}
	for seed := int64(1); seed <= 80; seed++ {
		cases = append(cases, genCase(seed))
	}
	seen := map[string]int{}
	for _, c := range cases {
		if err := c.run(seen); err != nil {
			small := shrink(c)
			t.Fatalf("%v\non %s\nshrunk to (commit it under testdata/model/ to replay on every run):\n%s\nwhich fails with: %v",
				err, c, small, small.run(nil))
		}
	}
	t.Logf("exercised: %v", seen)
	// The cases are only worth their number if they reach every rule.
	for _, k := range []string{"found", "naive-lost", "naive-stopped", "later-day-stopped", "retries", "give-ups", "skips", "opens", "recloses", "pacer-waits"} {
		if seen[k] == 0 {
			t.Errorf("no case reached %q: %v", k, seen)
		}
	}
}

// TestModelRepros replays the committed repros, one per bug the model has
// caught, so none of them comes back.
func TestModelRepros(t *testing.T) {
	files, err := filepath.Glob("testdata/model/*.txt")
	if err != nil || len(files) == 0 {
		t.Fatalf("no repros under testdata/model (%v)", err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			c, err := parseCase(line)
			if err != nil {
				t.Fatalf("%s: %q: %v", name, line, err)
			}
			if c.String() != line {
				t.Fatalf("%s: %q reads back as %q", name, line, c)
			}
			if err := c.run(nil); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}
