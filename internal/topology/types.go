// Package topology models the AS-level Internet: autonomous systems,
// business relationships (customer-to-provider and settlement-free peering),
// colocation facilities, IXPs, and address space. A synthetic generator
// (gen.go) produces topologies with the structural properties the paper's
// measurement techniques depend on: a flattened core where content
// hypergiants peer directly with eyeball networks, a transit hierarchy with
// a tier-1 clique, and heavy-tailed address-space and customer-cone sizes.
package topology

import (
	"cmp"
	"fmt"
	"slices"

	"itmap/internal/geo"
	"itmap/internal/order"
)

// ASN identifies an autonomous system.
type ASN uint32

// ASNsByText returns m's entries in the order JSON lists their keys, the
// decimal spellings' text order: 3000 before 700.
func ASNsByText[V any](m map[ASN]V) []order.Entry[ASN, V] {
	return order.ByRank(m, asnTextRank)
}

// asnTextRank ranks an ASN as its spelling sorts: each digit plus one, four
// bits each from bit 36 down, so a digit past the end of a shorter spelling
// is a 0 below every digit and a shorter spelling sorts first.
func asnTextRank(a ASN) uint64 {
	var r uint64
	for v := uint32(a); ; v /= 10 {
		r = r>>4 | uint64(v%10+1)<<36
		if v < 10 {
			return r
		}
	}
}

// ASType classifies an AS by its business role.
type ASType uint8

// AS roles in the simulated Internet.
const (
	// Tier1 ASes form a full-mesh peering clique at the top of the
	// transit hierarchy and have no providers.
	Tier1 ASType = iota
	// Transit ASes sell transit regionally; customers of tier-1s.
	Transit
	// Eyeball ASes are access ISPs hosting end users.
	Eyeball
	// Hypergiant ASes are large content/CDN providers (the paper's
	// "popular services" owners).
	Hypergiant
	// Cloud ASes host third-party services on shared infrastructure.
	Cloud
	// Enterprise ASes are stub business networks with few users.
	Enterprise
	// Academic ASes host research networks and measurement vantage
	// points (the simulator's RIPE-Atlas/PlanetLab stand-ins).
	Academic
)

// String returns the lower-case name of the AS type.
func (t ASType) String() string {
	switch t {
	case Tier1:
		return "tier1"
	case Transit:
		return "transit"
	case Eyeball:
		return "eyeball"
	case Hypergiant:
		return "hypergiant"
	case Cloud:
		return "cloud"
	case Enterprise:
		return "enterprise"
	case Academic:
		return "academic"
	default:
		return fmt.Sprintf("astype(%d)", uint8(t))
	}
}

// Relationship describes how a neighbor relates to this AS, from this AS's
// point of view.
type Relationship uint8

// Relationship values.
const (
	// RelProvider: the neighbor is my transit provider (I pay them).
	RelProvider Relationship = iota
	// RelCustomer: the neighbor is my customer (they pay me).
	RelCustomer
	// RelPeer: settlement-free peering.
	RelPeer
)

// String returns a short name for the relationship.
func (r Relationship) String() string {
	switch r {
	case RelProvider:
		return "provider"
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	default:
		return fmt.Sprintf("rel(%d)", uint8(r))
	}
}

// Invert returns the relationship from the neighbor's point of view.
func (r Relationship) Invert() Relationship {
	switch r {
	case RelProvider:
		return RelCustomer
	case RelCustomer:
		return RelProvider
	default:
		return RelPeer
	}
}

// LinkKind describes where/how an interconnection is realized. The paper's
// §3.3 revolves around the visibility difference between transit links
// (mostly visible in public topologies) and private/IXP peerings of content
// providers (mostly invisible).
type LinkKind uint8

// Link kinds.
const (
	// TransitLink is a paid customer-provider connection.
	TransitLink LinkKind = iota
	// PrivatePeering is a PNI in a shared facility.
	PrivatePeering
	// IXPPeering is public peering over an IXP fabric.
	IXPPeering
)

// String returns a short name for the link kind.
func (k LinkKind) String() string {
	switch k {
	case TransitLink:
		return "transit"
	case PrivatePeering:
		return "pni"
	case IXPPeering:
		return "ixp"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// FacilityID identifies a colocation facility.
type FacilityID int32

// Facility is a colocation facility where ASes interconnect.
type Facility struct {
	ID   FacilityID
	Name string
	City geo.City
}

// IXPID identifies an Internet exchange point.
type IXPID int32

// IXP is an Internet exchange point with a member set. IXP peerings are
// realized at the IXP's facility.
type IXP struct {
	ID       IXPID
	Name     string
	Facility FacilityID
	Members  []ASN
}

// Neighbor is one adjacency of an AS.
type Neighbor struct {
	ASN ASN
	// Rel is the relationship from the owning AS's point of view.
	Rel Relationship
	// Kind says how the link is realized.
	Kind LinkKind
	// Facility is where the interconnection happens.
	Facility FacilityID
}

// PeeringPolicy is an AS's published willingness to peer, mirroring the
// PeeringDB field the paper's §3.3.3 proposes feeding a recommender.
type PeeringPolicy uint8

// Peering policies.
const (
	PolicyOpen PeeringPolicy = iota
	PolicySelective
	PolicyRestrictive
)

// String returns a short name for the peering policy.
func (p PeeringPolicy) String() string {
	switch p {
	case PolicyOpen:
		return "open"
	case PolicySelective:
		return "selective"
	default:
		return "restrictive"
	}
}

// AS is one autonomous system.
type AS struct {
	ASN     ASN
	Name    string
	Type    ASType
	Country string // country code; hypergiants/tier1s use "ZZ" (global)
	Region  geo.Region

	// Prefixes is the address space originated by this AS, as /24 IDs.
	// Contiguous per AS.
	Prefixes []PrefixID

	// Facilities lists colocation facilities where the AS is present.
	Facilities []FacilityID

	// Policy is the published peering policy.
	Policy PeeringPolicy

	// Neighbors lists adjacencies, sorted by neighbor ASN.
	Neighbors []Neighbor

	// SubscribersK is the eyeball subscriber count in thousands
	// (ground truth for Figure 2); zero for non-eyeballs.
	SubscribersK float64

	// RootOperator marks networks operating root DNS letters. Like the
	// real operators, they maintain anycast instances at IXPs worldwide
	// and peer very widely — peerings that are mostly invisible in
	// public topologies, which is why Atlas→root paths resist
	// prediction (§3.3.1).
	RootOperator bool
}

// Providers returns the ASNs of this AS's providers.
func (a *AS) Providers() []ASN { return a.neighborsByRel(RelProvider) }

func (a *AS) neighborsByRel(rel Relationship) []ASN {
	var out []ASN
	for _, n := range a.Neighbors {
		if n.Rel == rel {
			out = append(out, n.ASN)
		}
	}
	return out
}

// HasNeighbor reports whether b is a neighbor, and with what relationship.
func (a *AS) HasNeighbor(b ASN) (Relationship, bool) {
	for _, n := range a.Neighbors {
		if n.ASN == b {
			return n.Rel, true
		}
	}
	return 0, false
}

// Topology is the complete AS-level map of the simulated Internet.
type Topology struct {
	// ASes maps ASN to AS. Use Index/ASAt for dense iteration.
	ASes map[ASN]*AS

	// Facilities by ID.
	Facilities []Facility

	// IXPs by ID.
	IXPs []IXP

	// PrefixOwner maps every allocated /24 to its origin AS.
	PrefixOwner map[PrefixID]ASN

	// PrefixCity maps every allocated /24 to the city its users (or
	// servers) are in.
	PrefixCity map[PrefixID]geo.City

	// Allocator continues /24 allocation after generation, so later
	// stages (e.g. off-net cache deployment) can extend address space.
	Allocator *PrefixAllocator

	asns     []ASN // sorted, dense index
	idx      map[ASN]int
	linkIdx  *LinkIndex // dense link index; see linkindex.go
	prefixes []PrefixID // sorted keys of PrefixOwner; see AllPrefixes
}

// AllocPrefixes allocates n fresh /24s, assigns them to owner, and places
// them in city. Used by the services layer to carve out server/off-net
// address space after the base topology exists.
func (t *Topology) AllocPrefixes(owner ASN, n int, city geo.City) []PrefixID {
	a, ok := t.ASes[owner]
	if !ok {
		panic(fmt.Sprintf("topology: AllocPrefixes for unknown AS %d", owner))
	}
	if t.Allocator == nil {
		t.Allocator = NewPrefixAllocator()
	}
	ps := t.Allocator.Alloc(n)
	for _, p := range ps {
		a.Prefixes = append(a.Prefixes, p)
		t.PrefixOwner[p] = owner
		t.PrefixCity[p] = city
	}
	return ps
}

// NewTopology builds an empty topology.
func NewTopology() *Topology {
	return &Topology{
		ASes:        make(map[ASN]*AS),
		PrefixOwner: make(map[PrefixID]ASN),
		PrefixCity:  make(map[PrefixID]geo.City),
		idx:         make(map[ASN]int),
	}
}

// AddAS inserts an AS. It panics if the ASN is already present.
func (t *Topology) AddAS(a *AS) {
	if _, ok := t.ASes[a.ASN]; ok {
		panic(fmt.Sprintf("topology: duplicate ASN %d", a.ASN))
	}
	t.ASes[a.ASN] = a
	t.asns = nil // invalidate dense index
	t.linkIdx = nil
}

// Freeze finalizes the dense AS index and sorts neighbor lists. Call after
// all ASes and links are added and before running BGP.
func (t *Topology) Freeze() {
	t.linkIdx = nil // neighbor rows may re-sort below
	t.asns = order.Keys(t.ASes)
	t.idx = make(map[ASN]int, len(t.asns))
	for i, asn := range t.asns {
		t.idx[asn] = i
	}
	for _, a := range t.ASes {
		slices.SortFunc(a.Neighbors, func(x, y Neighbor) int { return cmp.Compare(x.ASN, y.ASN) })
	}
}

// NumASes returns the number of ASes.
func (t *Topology) NumASes() int { return len(t.ASes) }

// ASNs returns all ASNs in ascending order. The returned slice is shared;
// callers must not modify it.
func (t *Topology) ASNs() []ASN {
	if t.asns == nil {
		t.Freeze()
	}
	return t.asns
}

// Index returns the dense index of an ASN, for use with per-AS arrays.
func (t *Topology) Index(asn ASN) (int, bool) {
	if t.asns == nil {
		t.Freeze()
	}
	i, ok := t.idx[asn]
	return i, ok
}

// AddLink connects a and b with the given relationship (rel is a's view of
// b), kind, and facility. It panics on unknown ASes or a pre-existing link.
func (t *Topology) AddLink(a, b ASN, rel Relationship, kind LinkKind, fac FacilityID) {
	asA, okA := t.ASes[a]
	asB, okB := t.ASes[b]
	if !okA || !okB {
		panic(fmt.Sprintf("topology: AddLink unknown AS %d or %d", a, b))
	}
	if a == b {
		panic(fmt.Sprintf("topology: self link at AS %d", a))
	}
	if _, dup := asA.HasNeighbor(b); dup {
		panic(fmt.Sprintf("topology: duplicate link %d-%d", a, b))
	}
	asA.Neighbors = append(asA.Neighbors, Neighbor{ASN: b, Rel: rel, Kind: kind, Facility: fac})
	asB.Neighbors = append(asB.Neighbors, Neighbor{ASN: a, Rel: rel.Invert(), Kind: kind, Facility: fac})
	t.linkIdx = nil // adjacency changed; dense link IDs must be re-minted
}

// HasLink reports whether a and b are directly connected.
func (t *Topology) HasLink(a, b ASN) bool {
	asA, ok := t.ASes[a]
	if !ok {
		return false
	}
	_, has := asA.HasNeighbor(b)
	return has
}

// NumLinks returns the number of undirected adjacencies.
func (t *Topology) NumLinks() int {
	total := 0
	for _, a := range t.ASes {
		total += len(a.Neighbors)
	}
	return total / 2
}

// LinkKey canonically orders an undirected AS pair for use as a map key.
type LinkKey struct{ Lo, Hi ASN }

// MakeLinkKey returns the canonical key for the pair (a, b).
func MakeLinkKey(a, b ASN) LinkKey {
	if a > b {
		a, b = b, a
	}
	return LinkKey{Lo: a, Hi: b}
}

// Compare orders link keys by (Lo, Hi), for deterministic iteration over
// link-keyed maps.
func (k LinkKey) Compare(o LinkKey) int {
	if k.Lo != o.Lo {
		return int(k.Lo) - int(o.Lo)
	}
	return int(k.Hi) - int(o.Hi)
}

// Links returns every undirected link exactly once.
func (t *Topology) Links() []LinkInfo {
	var out []LinkInfo
	for asn, a := range t.ASes {
		for _, n := range a.Neighbors {
			if asn < n.ASN {
				out = append(out, LinkInfo{
					A: asn, B: n.ASN, RelAB: n.Rel,
					Kind: n.Kind, Facility: n.Facility,
				})
			}
		}
	}
	slices.SortFunc(out, func(x, y LinkInfo) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	return out
}

// LinkInfo describes one undirected link; RelAB is A's view of B.
type LinkInfo struct {
	A, B     ASN
	RelAB    Relationship
	Kind     LinkKind
	Facility FacilityID
}

// ASesOfType returns all ASNs with the given type, ascending.
func (t *Topology) ASesOfType(ty ASType) []ASN {
	var out []ASN
	for _, asn := range t.ASNs() {
		if t.ASes[asn].Type == ty {
			out = append(out, asn)
		}
	}
	return out
}

// EyeballsInCountry returns the eyeball ASes registered in a country code,
// ascending by ASN.
func (t *Topology) EyeballsInCountry(code string) []ASN {
	var out []ASN
	for _, asn := range t.ASNs() {
		a := t.ASes[asn]
		if a.Type == Eyeball && a.Country == code {
			out = append(out, asn)
		}
	}
	return out
}

// Facility returns the facility with the given ID.
func (t *Topology) Facility(id FacilityID) Facility {
	return t.Facilities[int(id)]
}

// SharedFacilities returns the facilities where both a and b are present.
func (t *Topology) SharedFacilities(a, b ASN) []FacilityID {
	asA, asB := t.ASes[a], t.ASes[b]
	if asA == nil || asB == nil {
		return nil
	}
	set := make(map[FacilityID]bool, len(asA.Facilities))
	for _, f := range asA.Facilities {
		set[f] = true
	}
	var out []FacilityID
	for _, f := range asB.Facilities {
		if set[f] {
			out = append(out, f)
		}
	}
	slices.Sort(out)
	return out
}

// OwnerOf returns the AS originating the prefix.
func (t *Topology) OwnerOf(p PrefixID) (ASN, bool) {
	asn, ok := t.PrefixOwner[p]
	return asn, ok
}

// AllPrefixes returns every allocated /24, ascending. This is the
// "routable prefix list" measurement tools iterate over — every boot stage
// walks it — so it is sorted once per topology, not once per call. Like
// ASNs, the returned slice is shared and callers must not modify it (its
// capacity is its length, so appending to it copies). Prefixes are only ever
// added, so the memo is current exactly when it is as long as PrefixOwner:
// AllocPrefixes and generation need no invalidation call, and a Subgraph,
// which shares PrefixOwner but not the memo, never reads a stale one.
// Rebuilding is not thread-safe: call it once after the last allocation and
// before fanning out (world.Build does).
func (t *Topology) AllPrefixes() []PrefixID {
	if len(t.prefixes) != len(t.PrefixOwner) {
		t.prefixes = order.Keys(t.PrefixOwner)
	}
	return t.prefixes
}
