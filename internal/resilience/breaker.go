package resilience

import "itmap/internal/simtime"

// BreakerConfig parameterizes a circuit breaker.
type BreakerConfig struct {
	// FailThreshold is the consecutive-failure count that opens the
	// breaker (default 5).
	FailThreshold int
	// Cooldown is how long an open breaker rejects before allowing a
	// half-open trial probe (default 30 simulated minutes).
	Cooldown simtime.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailThreshold < 1 {
		c.FailThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * simtime.Minute
	}
	return c
}

// State is a breaker's position in the closed → open → half-open cycle.
type State uint8

// Breaker states.
const (
	// StateClosed: requests flow.
	StateClosed State = iota
	// StateOpen: requests are rejected until the cooldown elapses.
	StateOpen
	// StateHalfOpen: the cooldown elapsed and one trial request was let
	// through; its outcome decides between closed and open.
	StateHalfOpen
)

// String names the state for events and metrics labels.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a circuit breaker over simulated time, one per dependency
// (e.g. per resolver PoP). Closed: requests flow. Open: requests are
// rejected until Cooldown elapses. Half-open: one trial flows; success
// closes the breaker, failure re-opens it. Not safe for concurrent use —
// sweeps keep one breaker set per shard.
type Breaker struct {
	cfg         BreakerConfig
	consecFails int
	open        bool
	halfOpen    bool
	openSince   simtime.Time
	// Opens counts transitions to open, for sweep stats.
	Opens int
	// OnStateChange, if set, observes every state transition exactly once:
	// closed→open, open→half-open (when Allow grants the trial), and
	// half-open→closed / half-open→open (when the trial's outcome is
	// recorded). Observability instrumentation hangs off this hook; the
	// hook must not call back into the breaker.
	OnStateChange func(from, to State, at simtime.Time)
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

func (b *Breaker) transition(from, to State, at simtime.Time) {
	if b.OnStateChange != nil {
		b.OnStateChange(from, to, at)
	}
}

// State returns the breaker's current state.
func (b *Breaker) State() State {
	switch {
	case b.halfOpen:
		return StateHalfOpen
	case b.open:
		return StateOpen
	}
	return StateClosed
}

// Allow reports whether a request may proceed at t. An open breaker allows
// exactly the half-open trial once the cooldown has elapsed; granting that
// trial is the open→half-open transition.
func (b *Breaker) Allow(t simtime.Time) bool {
	if !b.open {
		return true
	}
	if t < b.openSince+b.cfg.Cooldown {
		return false
	}
	if !b.halfOpen {
		b.halfOpen = true
		b.transition(StateOpen, StateHalfOpen, t)
	}
	return true
}

// Record feeds the outcome of an allowed request back at time t.
func (b *Breaker) Record(t simtime.Time, ok bool) {
	if ok {
		if b.open {
			// Successful half-open trial: the dependency recovered.
			b.transition(b.State(), StateClosed, t)
		}
		b.open = false
		b.halfOpen = false
		b.consecFails = 0
		return
	}
	if b.open {
		// Failed half-open trial: restart the cooldown.
		from := b.State()
		b.halfOpen = false
		b.openSince = t
		b.Opens++
		b.transition(from, StateOpen, t)
		return
	}
	b.consecFails++
	if b.consecFails >= b.cfg.FailThreshold {
		b.open = true
		b.openSince = t
		b.Opens++
		b.transition(StateClosed, StateOpen, t)
	}
}
