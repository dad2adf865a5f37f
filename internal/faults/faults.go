// Package faults is the simulator's deterministic fault-injection layer.
// The paper's techniques run against a hostile substrate — public resolvers
// throttle and SERVFAIL single sources (§3.1.2), routers rate-limit ICMP
// (§3.3.2), PoPs flap — yet a simulated probe that always succeeds hides the
// measurement error the map inherits from that substrate. A Plan injects
// those failures as pure functions of (seed, identity, time): per-PoP packet
// loss, SERVFAIL rates, per-source throttling with temporary ban windows,
// transient PoP outages, and per-router ICMP rate limiting. Because every
// decision is a hash — never a shared mutable RNG stream — outcomes are
// identical across runs and across worker counts, and retries (which carry a
// fresh attempt number) re-roll honestly.
package faults

import (
	"errors"
	"math"

	"itmap/internal/obs"
	"itmap/internal/randx"
	"itmap/internal/simtime"
)

// Typed transient errors the probe-facing surfaces return instead of always
// answering. All are retryable; resilience layers classify on these.
var (
	// ErrTimeout is a dropped datagram or dead PoP: the prober hears
	// nothing until its read deadline fires.
	ErrTimeout = errors.New("faults: probe timed out")
	// ErrServfail is the resolver answering SERVFAIL — common when a
	// public resolver throttles or its backend lookup fails.
	ErrServfail = errors.New("faults: resolver answered SERVFAIL")
	// ErrThrottled is the resolver refusing a banned source: the
	// per-source rate limiter tripped and the ban window is still open.
	ErrThrottled = errors.New("faults: source throttled")
)

// IsTransient reports whether err is one of the injected transient faults —
// the class a resilient prober retries rather than aborting the sweep.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrServfail) || errors.Is(err, ErrThrottled)
}

// Domain-separation tags keep the per-concern hash streams independent.
const (
	tagLoss uint64 = 0xfa01 + iota
	tagServfail
	tagBanTrip
	tagBanOff
	tagPoPOutage
	tagPoPStart
	_ // retired stream; kept so tagICMP's value never moves
	tagICMP
)

// Plan is a seeded fault schedule over one simulated world. A nil *Plan (or
// one built from the zero Profile) injects nothing and is safe to query —
// the zero-fault fast path is a single nil/flag check, so wiring a plan
// through a surface cannot perturb fault-free behaviour.
type Plan struct {
	seed uint64
	prof Profile
	live bool
}

// NewPlan derives a fault schedule from a profile and a seed. The same
// (profile, seed) pair always yields the same faults.
func NewPlan(prof Profile, seed int64) *Plan {
	return &Plan{seed: uint64(seed), prof: prof, live: prof != (Profile{Name: prof.Name})}
}

// Enabled reports whether the plan injects any faults. Nil-safe.
func (pl *Plan) Enabled() bool { return pl != nil && pl.live }

// Profile returns the plan's parameters (zero Profile for a nil plan).
func (pl *Plan) Profile() Profile {
	if pl == nil {
		return Profile{}
	}
	return pl.prof
}

// timeBits folds a simulated time into the hash input.
func timeBits(t simtime.Time) uint64 { return math.Float64bits(float64(t)) }

// The fault layer's families.
var (
	injected  = obs.NewCounter("itm_faults_injected_total", "Faults injected into probe traffic, by kind.", "kind")
	rolls     = obs.NewCounter("itm_faults_rolls_total", "Probe-fault evaluations against an enabled plan.")
	icmpDrops = obs.NewCounter("itm_faults_icmp_drops_total", "Traceroute replies eaten by router ICMP rate limiting.")
)

// RegisterMetrics declares the fault-layer families so a fault-free process
// (itm-serve never injects) still exposes their HELP/TYPE headers.
func RegisterMetrics() { obs.Declare(injected, rolls, icmpDrops) }

func countInjected(kind string) { injected.With(kind).Inc() }

// PoPDown reports whether the PoP is inside a transient outage at t.
// Each PoP suffers at most one outage per simulated day, scheduled
// deterministically from the seed.
func (pl *Plan) PoPDown(pop int, t simtime.Time) bool {
	if !pl.Enabled() || pl.prof.PoPOutageProb <= 0 || pl.prof.PoPOutageDuration <= 0 {
		return false
	}
	day := t.DayIndex()
	if !randx.HashBool(pl.prof.PoPOutageProb, pl.seed, tagPoPOutage, uint64(pop), uint64(day)) {
		return false
	}
	span := float64(24 - pl.prof.PoPOutageDuration)
	if span < 0 {
		span = 0
	}
	start := simtime.Time(day)*24 + simtime.Time(span*randx.HashFloat(pl.seed, tagPoPStart, uint64(pop), uint64(day)))
	return t >= start && t < start+pl.prof.PoPOutageDuration
}

// SourceBanned reports whether the per-source rate limiter has the source in
// a ban window at t. The limiter trips with ThrottleTripProb once per
// accounting window; a trip opens a ban of BanDuration starting at a
// deterministic offset inside the window (bans may spill into the next).
func (pl *Plan) SourceBanned(source uint64, t simtime.Time) bool {
	if !pl.Enabled() || pl.prof.ThrottleTripProb <= 0 || pl.prof.BanDuration <= 0 {
		return false
	}
	w := pl.prof.ThrottleWindow
	if w <= 0 {
		w = simtime.Hour
	}
	k := int64(math.Floor(float64(t / w)))
	// A ban opened in the current or the previous window can cover t.
	for _, win := range [2]int64{k, k - 1} {
		if win < 0 {
			continue
		}
		if !randx.HashBool(pl.prof.ThrottleTripProb, pl.seed, tagBanTrip, source, uint64(win)) {
			continue
		}
		start := simtime.Time(win)*w + w*simtime.Time(randx.HashFloat(pl.seed, tagBanOff, source, uint64(win)))
		if t >= start && t < start+pl.prof.BanDuration {
			return true
		}
	}
	return false
}

// ICMPDropped reports whether a router's ICMP rate limiter ate the
// TTL-exceeded reply for one traceroute probe. key identifies the probe
// (src, dst, hop); attempt re-rolls on retry.
func (pl *Plan) ICMPDropped(router uint64, key uint64, attempt int, t simtime.Time) bool {
	if !pl.Enabled() || pl.prof.ICMPDropProb <= 0 {
		return false
	}
	dropped := randx.HashBool(pl.prof.ICMPDropProb, pl.seed, tagICMP, router, key, uint64(attempt), timeBits(t))
	if dropped {
		icmpDrops.Inc()
	}
	return dropped
}

// ProbeFault evaluates every fault class for one DNS probe against a PoP and
// returns the first applicable typed error, or nil. key identifies the
// (domain, target) pair; attempt re-rolls per-packet faults on retry, so a
// retried probe is a genuinely new datagram, not a replay of the same coin.
//
// Order mirrors reality: a dead PoP times out before any limiter is
// consulted; a banned source is refused before its packet could be lost.
func (pl *Plan) ProbeFault(pop int, source, key uint64, attempt int, t simtime.Time) error {
	if !pl.Enabled() {
		return nil
	}
	rolls.Inc()
	if pl.PoPDown(pop, t) {
		countInjected("pop-outage")
		return ErrTimeout
	}
	if pl.SourceBanned(source, t) {
		countInjected("throttle")
		return ErrThrottled
	}
	if pl.prof.PacketLoss > 0 &&
		randx.HashBool(pl.prof.PacketLoss, pl.seed, tagLoss, uint64(pop), source, key, uint64(attempt), timeBits(t)) {
		countInjected("packet-loss")
		return ErrTimeout
	}
	if pl.prof.ServfailRate > 0 &&
		randx.HashBool(pl.prof.ServfailRate, pl.seed, tagServfail, uint64(pop), source, key, uint64(attempt), timeBits(t)) {
		countInjected("servfail")
		return ErrServfail
	}
	return nil
}
