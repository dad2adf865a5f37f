package resilience

import "itmap/internal/simtime"

// Pacer is a token-bucket rate limiter over simulated time: the client-side
// discipline that keeps one probing source under its qps budget so the
// server-side limiter never trips on a well-behaved prober. Not safe for
// concurrent use — one pacer per probing source (shard).
type Pacer struct {
	qps    float64
	burst  float64
	tokens float64
	last   simtime.Time
	primed bool
}

// NewPacer returns a pacer allowing qps queries per (simulated) second with
// the given burst size (min 1). qps <= 0 disables pacing.
func NewPacer(qps float64, burst int) *Pacer {
	if burst < 1 {
		burst = 1
	}
	return &Pacer{qps: qps, burst: float64(burst), tokens: float64(burst)}
}

// Next consumes one token and returns the earliest time >= t the query may
// fire. The pacer never travels back in time: requests scheduled before a
// previously returned instant are pushed after it, which is exactly how a
// single serial prober behaves.
func (p *Pacer) Next(t simtime.Time) simtime.Time {
	if p == nil || p.qps <= 0 {
		return t
	}
	if !p.primed {
		p.last = t
		p.primed = true
	}
	if t < p.last {
		t = p.last
	}
	// Refill for the time elapsed since the last grant.
	p.tokens += p.qps * float64(t-p.last) * 3600
	if p.tokens > p.burst {
		p.tokens = p.burst
	}
	if p.tokens >= 1 {
		p.tokens--
		p.last = t
		return t
	}
	wait := simtime.Seconds((1 - p.tokens) / p.qps)
	t += wait
	p.tokens = 0
	p.last = t
	return t
}
