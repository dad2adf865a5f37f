package bgp

import (
	"testing"

	"itmap/internal/randx"
	"itmap/internal/topology"
)

func outageWorld(t *testing.T) (*topology.Topology, *AllPaths, *AllPaths, *Collector, topology.ASN) {
	t.Helper()
	top := topology.Generate(topology.TinyGenConfig(51))
	before := ComputeAll(top)
	col := &Collector{Peers: DefaultCollectorPeers(top, randx.New(3))}
	// Fail the transit AS with the most links.
	var target topology.ASN
	best := -1
	for _, asn := range top.ASesOfType(topology.Transit) {
		if n := len(top.ASes[asn].Neighbors); n > best {
			best, target = n, asn
		}
	}
	sub := top.Subgraph(func(l topology.LinkInfo) bool {
		return l.A != target && l.B != target
	})
	after := ComputeAll(sub)
	return top, before, after, col, target
}

func TestComputeUpdatesReflectChanges(t *testing.T) {
	top, before, after, col, target := outageWorld(t)
	updates := col.ComputeUpdates(before, after)
	if len(updates) == 0 {
		t.Fatal("no updates for a transit outage")
	}
	peers := map[topology.ASN]bool{}
	for _, p := range col.Peers {
		peers[p] = true
	}
	announced, withdrawn := 0, 0
	for _, u := range updates {
		if !peers[topology.ASN(u.PeerASN)] {
			t.Fatalf("update from non-peer AS %d", u.PeerASN)
		}
		withdrawn += len(u.Withdrawn)
		announced += len(u.Announced)
		// Announced paths must start at the peer and avoid the
		// failed AS.
		if len(u.Announced) > 0 {
			if topology.ASN(u.ASPath[0]) != topology.ASN(u.PeerASN) {
				t.Fatalf("announcement path %v does not start at peer", u.ASPath)
			}
			for _, asn := range u.ASPath {
				if topology.ASN(asn) == target {
					t.Fatalf("post-outage path %v still uses failed AS", u.ASPath)
				}
			}
		}
	}
	if announced == 0 {
		t.Error("no announcements (reroutes) in update stream")
	}
	_ = withdrawn
	_ = top
}

func TestLinksFromUpdatesAreNewPathLinks(t *testing.T) {
	top, before, after, col, target := outageWorld(t)
	updates := col.ComputeUpdates(before, after)
	links := LinksFromUpdates(updates)
	if len(links) == 0 {
		t.Fatal("no links from updates")
	}
	for lk := range links {
		if lk.Lo == target || lk.Hi == target {
			t.Fatalf("update links include the failed AS: %v", lk)
		}
		if !top.HasLink(lk.Lo, lk.Hi) {
			t.Fatalf("update link %v not in topology", lk)
		}
	}
	_ = before
	_ = after
}

func TestNoChangesNoUpdates(t *testing.T) {
	top := topology.Generate(topology.TinyGenConfig(52))
	ap := ComputeAll(top)
	col := &Collector{Peers: DefaultCollectorPeers(top, randx.New(4))}
	if got := col.ComputeUpdates(ap, ap); len(got) != 0 {
		t.Fatalf("identical states produced %d updates", len(got))
	}
}
