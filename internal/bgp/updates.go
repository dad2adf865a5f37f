package bgp

import (
	"net/netip"

	"itmap/internal/mrt"
	"itmap/internal/topology"
)

// Update-stream support: after a routing event, each collector peer sends
// UPDATEs for the prefixes whose best path changed — withdrawals where the
// destination became unreachable, announcements carrying the new AS path.
// This is the realistic post-event signal (§2.1's "where the prefixes may
// be routed instead" becomes observable within minutes on RouteViews).

// ComputeUpdates diffs two routing states from the collector's vantage and
// returns the per-peer UPDATE stream the event would produce.
func (c *Collector) ComputeUpdates(before, after *AllPaths) []mrt.Update {
	top := before.Topology()
	var out []mrt.Update
	for _, peer := range c.Peers {
		peerAddr := netip.AddrFrom4([4]byte{0, 0, 0, 0})
		if a := top.ASes[peer]; a != nil && len(a.Prefixes) > 0 {
			peerAddr = a.Prefixes[0].Addr(179)
		}
		var withdrawn []netip.Prefix
		type ann struct {
			prefix netip.Prefix
			path   []uint32
		}
		var announces []ann
		for _, origin := range top.ASNs() {
			oa := top.ASes[origin]
			if len(oa.Prefixes) == 0 {
				continue
			}
			prefix := netip.PrefixFrom(oa.Prefixes[0].Addr(0), 24)
			oldPath := before.Path(peer, origin)
			newPath := after.Path(peer, origin)
			switch {
			case newPath == nil && oldPath != nil:
				withdrawn = append(withdrawn, prefix)
			case newPath != nil && !samePath(oldPath, newPath):
				asPath := make([]uint32, len(newPath))
				for i, asn := range newPath {
					asPath[i] = uint32(asn)
				}
				announces = append(announces, ann{prefix, asPath})
			}
		}
		if len(withdrawn) > 0 {
			out = append(out, mrt.Update{
				PeerASN: uint32(peer), PeerAddr: peerAddr, Withdrawn: withdrawn,
			})
		}
		for _, a := range announces {
			out = append(out, mrt.Update{
				PeerASN: uint32(peer), PeerAddr: peerAddr,
				Announced: []netip.Prefix{a.prefix}, ASPath: a.path,
			})
		}
	}
	return out
}

func samePath(a, b []topology.ASN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// LinksFromUpdates extracts the AS adjacencies visible on announced paths —
// the fresh links a post-event crawl of the update stream reveals.
func LinksFromUpdates(updates []mrt.Update) map[topology.LinkKey]bool {
	links := map[topology.LinkKey]bool{}
	for _, u := range updates {
		for i := 0; i+1 < len(u.ASPath); i++ {
			a := topology.ASN(u.ASPath[i])
			b := topology.ASN(u.ASPath[i+1])
			if a != b {
				links[topology.MakeLinkKey(a, b)] = true
			}
		}
	}
	return links
}
