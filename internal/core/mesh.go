package core

import (
	"cmp"
	"slices"
	"sort"
)

// MeshPairDocument is one AS pair's entry in the user↔user mesh matrix:
// the observed AS-level path between two eyeball networks, the RTT
// distribution the agents measured between them, and how much of the
// probing survived the fault substrate. The pair is canonical (Lo < Hi)
// and the recorded path runs Lo→Hi; holes (hops suppressed by ICMP rate
// limiting) appear as ASN 0.
type MeshPairDocument struct {
	// Lo and Hi are the pair's ASNs in canonical order (Lo < Hi).
	Lo uint32 `json:"lo"`
	Hi uint32 `json:"hi"`
	// Path is the observed AS path Lo→Hi (0 marks a hole). Nil when every
	// traceroute of the pair found it unreachable.
	Path []uint32 `json:"path,omitempty"`
	// Complete reports whether the recorded path has no holes.
	Complete bool `json:"complete"`
	// Probes counts RTT pings issued for the pair; Lost counts the ones
	// the fault substrate ate.
	Probes int `json:"probes"`
	Lost   int `json:"lost"`
	// MinRTT/MeanRTT/MaxRTT summarize the surviving pings, in
	// milliseconds. All zero when every ping was lost.
	MinRTT  float64 `json:"min_rtt_ms"`
	MeanRTT float64 `json:"mean_rtt_ms"`
	MaxRTT  float64 `json:"max_rtt_ms"`
	// Confidence is the coverage score: the answered fraction of pings,
	// halved when the recorded path never came back complete.
	Confidence float64 `json:"confidence"`
}

// Key folds the canonical pair into one ordered 64-bit key (Lo in the high
// word), the sort and wire order of the mesh sections.
func (p *MeshPairDocument) Key() uint64 { return MeshKey(p.Lo, p.Hi) }

// MeshKey builds the canonical pair key for two ASNs in either order.
func MeshKey(a, b uint32) uint64 {
	if b < a {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// MeshDocument is the serializable user↔user mesh matrix — the artifact a
// vantage-fleet campaign produces, the per-epoch payload mapstore encodes
// as ITMB v2 mesh sections, and the source the /v1/path and /v1/latency
// routes answer from.
type MeshDocument struct {
	// Version is the producer's document version (mirrors MapDocument).
	Version int `json:"version"`
	// Agents and Rounds record the campaign shape that produced the mesh.
	Agents int `json:"agents"`
	Rounds int `json:"rounds"`
	// Profile names the fault preset the campaign ran under.
	Profile string `json:"profile"`
	// Pairs holds the measured AS pairs, sorted by canonical key.
	Pairs []MeshPairDocument `json:"pairs"`
}

// Normalize sorts the pairs into canonical key order. Encoding requires
// it; the campaign builder already emits sorted pairs, so this is a cheap
// idempotent guard for hand-built documents.
func (m *MeshDocument) Normalize() {
	slices.SortFunc(m.Pairs, func(a, b MeshPairDocument) int { return cmp.Compare(a.Key(), b.Key()) })
}

// PairAt returns the entry for the (a, b) pair in either order.
func (m *MeshDocument) PairAt(a, b uint32) (*MeshPairDocument, bool) {
	key := MeshKey(a, b)
	i := sort.Search(len(m.Pairs), func(i int) bool { return m.Pairs[i].Key() >= key })
	if i < len(m.Pairs) && m.Pairs[i].Key() == key {
		return &m.Pairs[i], true
	}
	return nil, false
}

// LossRate is the fraction of the pair's pings the substrate ate.
func (p *MeshPairDocument) LossRate() float64 {
	if p.Probes == 0 {
		return 0
	}
	return float64(p.Lost) / float64(p.Probes)
}
