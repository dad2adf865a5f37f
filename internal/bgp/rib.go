// Package bgp computes interdomain routes over a topology using the
// Gao–Rexford model: routes learned from customers are preferred over routes
// from peers, which beat routes from providers; customer routes are exported
// to everyone, peer and provider routes only to customers. Ties break on
// shortest AS path, then lowest next-hop ASN. The same machinery runs on
// both the true topology (ground-truth paths) and on observed subgraphs
// (the paper's §3.3 path prediction on public topologies).
package bgp

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"itmap/internal/obs"
	"itmap/internal/parallel"
	"itmap/internal/topology"
)

// RouteType says how an AS learned its best route toward a destination.
type RouteType uint8

// Route types in decreasing preference order.
const (
	// Unreachable means no policy-compliant route exists.
	Unreachable RouteType = iota
	// Origin is the destination itself.
	Origin
	// ViaCustomer routes were learned from a customer.
	ViaCustomer
	// ViaPeer routes were learned from a settlement-free peer.
	ViaPeer
	// ViaProvider routes were learned from a transit provider.
	ViaProvider
)

// String names the route type.
func (rt RouteType) String() string {
	switch rt {
	case Unreachable:
		return "unreachable"
	case Origin:
		return "origin"
	case ViaCustomer:
		return "customer"
	case ViaPeer:
		return "peer"
	case ViaProvider:
		return "provider"
	default:
		return fmt.Sprintf("routetype(%d)", uint8(rt))
	}
}

// RIB holds every AS's best route toward one origin AS. Entries are indexed
// by the topology's dense AS index.
type RIB struct {
	top    *topology.Topology
	origin topology.ASN

	// NextHop[i] is the dense index of the next hop of AS i toward the
	// origin, or -1.
	NextHop []int32
	// PathLen[i] is the AS-path length (hops) from AS i to the origin.
	PathLen []uint16
	// Type[i] is how AS i learned its best route.
	Type []RouteType
}

// scratch holds the per-level candidate state ComputeRIB needs, as dense
// epoch-stamped slices instead of per-level maps. One scratch is reused
// across every origin a worker sweeps (via scratchPool), so the per-origin
// allocation cost is just the RIB's three output arrays.
type scratch struct {
	epoch uint32
	// stamp[i] == epoch marks i as a candidate in the current round;
	// bumping epoch clears all candidates in O(1).
	stamp []uint32
	// via[i] is the best (min-ASN) next hop offered to candidate i this
	// round; offLen[i] is the offered path length (phase 2 only).
	via    []int32
	offLen []uint16
	// candA/candB are the frontier and the next-candidate list; phases
	// ping-pong between them so both retain capacity.
	candA, candB []int32
	// buckets is phase 3's path-length bucket queue.
	buckets [][]int32
}

var scratchPool sync.Pool

// scratchReuses counts pool hits — RIB computations that skipped the three
// scratch allocations. Pool retention depends on GC timing and scheduler
// locality, so the derived metric family is registered volatile.
var scratchReuses atomic.Uint64

// The routing families.
var (
	ribsComputed  = obs.NewCounter("itm_bgp_ribs_computed_total", "RIBs computed (one per origin sweep).")
	ribRoutes     = obs.NewCounter("itm_bgp_rib_routes_total", "Reachable best-route entries across all computed RIBs.")
	scratchReused = obs.NewCounter("itm_bgp_scratch_reuses_total",
		"ComputeRIB scratch allocations avoided via pooling (volatile: pool retention is GC/scheduler dependent).").
		Volatile()
)

func getScratch(n int) *scratch {
	s, _ := scratchPool.Get().(*scratch)
	if s == nil {
		s = &scratch{}
	} else {
		scratchReuses.Add(1)
	}
	if len(s.stamp) < n {
		s.stamp = make([]uint32, n)
		s.via = make([]int32, n)
		s.offLen = make([]uint16, n)
		s.epoch = 0
	}
	return s
}

// nextEpoch starts a fresh candidate round, handling uint32 wraparound.
func (s *scratch) nextEpoch() uint32 {
	if s.epoch == math.MaxUint32 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 0
	}
	s.epoch++
	return s.epoch
}

// ComputeRIB computes best routes from every AS toward origin using
// three-phase Gao–Rexford propagation.
func ComputeRIB(top *topology.Topology, origin topology.ASN) *RIB {
	n := top.NumASes()
	r := &RIB{
		top:     top,
		origin:  origin,
		NextHop: make([]int32, n),
		PathLen: make([]uint16, n),
		Type:    make([]RouteType, n),
	}
	for i := range r.NextHop {
		r.NextHop[i] = -1
	}
	oi, ok := top.Index(origin)
	if !ok {
		return r
	}
	r.Type[oi] = Origin
	asns := top.ASNs()
	li := top.LinkIndex() // CSR neighbor rows: no map lookups below
	s := getScratch(n)
	defer scratchPool.Put(s)

	// Phase 1: customer routes climb provider links. BFS by level with
	// deterministic min-ASN next-hop selection per level.
	frontier := append(s.candA[:0], int32(oi))
	next := s.candB[:0]
	for level := uint16(1); len(frontier) > 0; level++ {
		e := s.nextEpoch()
		next = next[:0]
		for _, uiv := range frontier {
			ui := int(uiv)
			nbrs, _ := li.Row(ui)
			u := top.ASes[asns[ui]]
			for k := range u.Neighbors {
				if u.Neighbors[k].Rel != topology.RelProvider {
					continue
				}
				pi := int(nbrs[k])
				if r.Type[pi] != Unreachable {
					continue // already has a customer route (or is origin)
				}
				if s.stamp[pi] != e {
					s.stamp[pi] = e
					s.via[pi] = uiv
					next = append(next, int32(pi))
				} else if asns[ui] < asns[s.via[pi]] {
					s.via[pi] = uiv
				}
			}
		}
		for _, piv := range next {
			pi := int(piv)
			r.Type[pi] = ViaCustomer
			r.NextHop[pi] = s.via[pi]
			r.PathLen[pi] = level
		}
		frontier, next = next, frontier
	}
	s.candA, s.candB = frontier[:0], next[:0] // keep grown capacity pooled

	// Phase 2: ASes with customer routes (or the origin) export to peers;
	// peer routes take one peer hop and are not re-exported upward.
	e := s.nextEpoch()
	offered := s.candA[:0]
	for ui := 0; ui < n; ui++ {
		if r.Type[ui] != ViaCustomer && r.Type[ui] != Origin {
			continue
		}
		nbrs, _ := li.Row(ui)
		u := top.ASes[asns[ui]]
		for k := range u.Neighbors {
			if u.Neighbors[k].Rel != topology.RelPeer {
				continue
			}
			vi := int(nbrs[k])
			if r.Type[vi] == ViaCustomer || r.Type[vi] == Origin {
				continue // customer routes beat peer routes
			}
			olen := r.PathLen[ui] + 1
			if s.stamp[vi] != e {
				s.stamp[vi] = e
				s.via[vi] = int32(ui)
				s.offLen[vi] = olen
				offered = append(offered, int32(vi))
			} else if olen < s.offLen[vi] ||
				(olen == s.offLen[vi] && asns[ui] < asns[s.via[vi]]) {
				s.via[vi] = int32(ui)
				s.offLen[vi] = olen
			}
		}
	}
	for _, viv := range offered {
		vi := int(viv)
		r.Type[vi] = ViaPeer
		r.NextHop[vi] = s.via[vi]
		r.PathLen[vi] = s.offLen[vi]
	}
	s.candA = offered[:0]

	// Phase 3: everything with a route exports to customers; provider
	// routes propagate down. Dijkstra by path length (bucket queue) with
	// min-ASN tie-break.
	maxLen := uint16(n + 2)
	if cap(s.buckets) < int(maxLen)+2 {
		s.buckets = make([][]int32, maxLen+2)
	}
	buckets := s.buckets[:maxLen+2]
	for i := range buckets {
		buckets[i] = buckets[i][:0]
	}
	for ui := 0; ui < n; ui++ {
		if r.Type[ui] != Unreachable {
			buckets[r.PathLen[ui]] = append(buckets[r.PathLen[ui]], int32(ui))
		}
	}
	for l := uint16(0); l <= maxLen; l++ {
		// Deterministic next-hop choice among equal-length parents:
		// collect candidates for this level first.
		e := s.nextEpoch()
		cands := s.candA[:0]
		for _, uiv := range buckets[l] {
			ui := int(uiv)
			if r.PathLen[ui] != l || r.Type[ui] == Unreachable {
				continue
			}
			nbrs, _ := li.Row(ui)
			u := top.ASes[asns[ui]]
			for k := range u.Neighbors {
				if u.Neighbors[k].Rel != topology.RelCustomer {
					continue
				}
				ci := int(nbrs[k])
				if r.Type[ci] != Unreachable {
					continue
				}
				if s.stamp[ci] != e {
					s.stamp[ci] = e
					s.via[ci] = uiv
					cands = append(cands, int32(ci))
				} else if asns[ui] < asns[s.via[ci]] {
					s.via[ci] = uiv
				}
			}
		}
		for _, civ := range cands {
			ci := int(civ)
			r.Type[ci] = ViaProvider
			r.NextHop[ci] = s.via[ci]
			r.PathLen[ci] = l + 1
			if l+1 <= maxLen {
				buckets[l+1] = append(buckets[l+1], civ)
			}
		}
		s.candA = cands[:0]
	}
	s.buckets = buckets

	reachable := uint64(0)
	for ui := 0; ui < n; ui++ {
		if r.Type[ui] != Unreachable {
			reachable++
		}
	}
	ribsComputed.Inc()
	ribRoutes.Add(reachable)
	return r
}

// PathFrom returns the AS path from src to the origin, inclusive of both
// ends, or nil if unreachable.
func (r *RIB) PathFrom(src topology.ASN) []topology.ASN {
	i, ok := r.top.Index(src)
	if !ok || r.Type[i] == Unreachable {
		return nil
	}
	return r.AppendPathFrom(make([]topology.ASN, 0, r.PathLen[i]+1), src)
}

// AppendPathFrom appends the AS path src→origin (inclusive of both ends) to
// dst and returns the extended slice — zero-alloc when dst has capacity.
// dst is returned unchanged if src is unknown or unreachable.
func (r *RIB) AppendPathFrom(dst []topology.ASN, src topology.ASN) []topology.ASN {
	i, ok := r.top.Index(src)
	if !ok || r.Type[i] == Unreachable {
		return dst
	}
	asns := r.top.ASNs()
	base := len(dst)
	dst = append(dst, src)
	for r.Type[i] != Origin {
		i = int(r.NextHop[i])
		dst = append(dst, asns[i])
		if len(dst)-base > r.top.NumASes() {
			panic("bgp: next-hop cycle")
		}
	}
	return dst
}

// AppendIndexPath appends the dense AS indices of the path from dense
// source index srcIdx to the origin (inclusive) to buf and returns it,
// reporting whether the source is reachable. With a reused buf this is the
// zero-alloc hot path the traffic matrix routes flows through.
func (r *RIB) AppendIndexPath(buf []int32, srcIdx int) ([]int32, bool) {
	if r.Type[srcIdx] == Unreachable {
		return buf, false
	}
	i := srcIdx
	base := len(buf)
	buf = append(buf, int32(i))
	for r.Type[i] != Origin {
		i = int(r.NextHop[i])
		buf = append(buf, int32(i))
		if len(buf)-base > len(r.NextHop) {
			panic("bgp: next-hop cycle")
		}
	}
	return buf, true
}

// HopsFrom returns the AS-path length in hops (0 = src is the origin), or
// -1 if unreachable.
func (r *RIB) HopsFrom(src topology.ASN) int {
	i, ok := r.top.Index(src)
	if !ok || r.Type[i] == Unreachable {
		return -1
	}
	return int(r.PathLen[i])
}

// AllPaths holds RIBs for every origin in a topology.
type AllPaths struct {
	top  *topology.Topology
	ribs []*RIB // by dense origin index
}

// ComputeAll computes RIBs for every origin, in parallel. Origins are
// claimed with an atomic counter (parallel.ForEach) rather than a channel:
// the per-origin work on small topologies is short enough that channel
// sends were a measurable share of the sweep.
func ComputeAll(top *topology.Topology) *AllPaths {
	asns := top.ASNs()
	top.LinkIndex() // build once before fan-out; lazy build is not thread-safe
	sp := obs.StartSpan("bgp.compute_all", 0).SetAttrInt("origins", int64(len(asns)))
	reuseBase := scratchReuses.Load()
	ap := &AllPaths{top: top, ribs: make([]*RIB, len(asns))}
	parallel.ForEach(len(asns), func(i int) {
		ap.ribs[i] = ComputeRIB(top, asns[i])
	})
	scratchReused.Add(scratchReuses.Load() - reuseBase)
	sp.End(0)
	return ap
}

// RIBFor returns the RIB toward the given origin, or nil if unknown.
func (ap *AllPaths) RIBFor(origin topology.ASN) *RIB {
	i, ok := ap.top.Index(origin)
	if !ok {
		return nil
	}
	return ap.ribs[i]
}

// Path returns the AS path src→dst, or nil if unreachable.
func (ap *AllPaths) Path(src, dst topology.ASN) []topology.ASN {
	r := ap.RIBFor(dst)
	if r == nil {
		return nil
	}
	return r.PathFrom(src)
}

// Hops returns the AS-path length src→dst in hops, or -1.
func (ap *AllPaths) Hops(src, dst topology.ASN) int {
	r := ap.RIBFor(dst)
	if r == nil {
		return -1
	}
	return r.HopsFrom(src)
}

// Topology returns the topology these paths were computed on.
func (ap *AllPaths) Topology() *topology.Topology { return ap.top }
