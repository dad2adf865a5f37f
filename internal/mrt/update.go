package mrt

import "net/netip"

// Update is one BGP UPDATE observed from a collector peer: table dumps say
// where routes are, updates say where they move — the post-event signal an
// outage analysis consumes (bgp.Collector.ComputeUpdates derives them). The
// package carries the value only; no caller reads or writes updates on the
// wire, so there is no BGP4MP codec.
type Update struct {
	PeerASN  uint32
	PeerAddr netip.Addr
	// Withdrawn prefixes lost their route at this peer.
	Withdrawn []netip.Prefix
	// Announced prefixes are reachable via ASPath.
	Announced []netip.Prefix
	// ASPath is the announcement's path (empty for pure withdrawals).
	ASPath []uint32
}
