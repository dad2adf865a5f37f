package latency

import (
	"itmap/internal/topology"
)

// PairRTTms returns one measured RTT between the two prefixes, symmetric
// in its arguments: the pair is canonicalized (lower prefix first) before
// the path and the jitter hash are derived, so PairRTTms(a, b, seq) ==
// PairRTTms(b, a, seq) exactly. This is the entry point mesh campaigns
// use — a round trip has no direction, so the user↔user matrix must not
// depend on which agent of a pair fired the ping.
func (m *Model) PairRTTms(a, b topology.PrefixID, seq int) (float64, bool) {
	if b < a {
		a, b = b, a
	}
	return m.RTTms(a, b, seq)
}
