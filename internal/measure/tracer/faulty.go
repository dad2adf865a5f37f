package tracer

import (
	"itmap/internal/bgp"
	"itmap/internal/faults"
	"itmap/internal/randx"
	"itmap/internal/simtime"
	"itmap/internal/topology"
)

// Hole marks a hop whose TTL-exceeded reply a router's ICMP rate limiter
// ate — the `* * *` line of a real traceroute. ASN 0 is never allocated by
// the topology generator, so the sentinel cannot collide with a real hop.
const Hole topology.ASN = 0

// TracerouteFaulty is Traceroute against a fault plan: each hop's reply is
// independently subject to the per-router ICMP rate limiter, and suppressed
// hops appear as Hole. With a nil or inert plan the result is identical to
// Traceroute. attempt re-rolls the per-hop coins, so re-running a traceroute
// later (or as a retry) genuinely re-measures.
func TracerouteFaulty(ap *bgp.AllPaths, src, dst topology.ASN, pl *faults.Plan, attempt int, t simtime.Time) []topology.ASN {
	path := ap.Path(src, dst)
	if path == nil || !pl.Enabled() {
		return path
	}
	key := randx.Hash64(uint64(src), uint64(dst))
	out := make([]topology.ASN, len(path))
	for i, hop := range path {
		if pl.ICMPDropped(uint64(hop), randx.Hash64(key, uint64(i)), attempt, t) {
			out[i] = Hole
			continue
		}
		out[i] = hop
	}
	return out
}
