package mapstore

import (
	"fmt"
	"sort"

	"itmap/internal/core"
	"itmap/internal/order"
	"itmap/internal/simtime"
	"itmap/internal/topology"
)

// buildIndexes derives the query-side structures from the canonical
// document. Called once at ingest; everything it builds is immutable, so
// when a document section is structurally shared with the previous epoch
// (per the shared bitmask), the index built from it is reused outright.
func (e *Epoch) buildIndexes(prev *Epoch, shared uint) {
	doc := e.Doc
	if prev != nil && shared&secActivity != 0 {
		e.totalAct, e.ranked = prev.totalAct, prev.ranked
	} else {
		e.totalAct = activityTotal(doc.ASActivity)
		e.ranked = make([]ASRank, 0, len(doc.ASActivity))
		for _, asn := range order.Keys(doc.ASActivity) {
			r := ASRank{ASN: uint32(asn), Activity: doc.ASActivity[asn]}
			if e.totalAct > 0 {
				r.Share = r.Activity / e.totalAct
			}
			e.ranked = append(e.ranked, r)
		}
		sort.SliceStable(e.ranked, func(i, j int) bool {
			if e.ranked[i].Activity != e.ranked[j].Activity {
				return e.ranked[i].Activity > e.ranked[j].Activity
			}
			return e.ranked[i].ASN < e.ranked[j].ASN
		})
	}

	if prev != nil && shared&secServers != 0 {
		e.serverAt = prev.serverAt
	} else {
		e.serverAt = make(map[topology.PrefixID]int, len(doc.Servers))
		for i := range doc.Servers {
			// First entry wins on (theoretical) duplicate prefixes; servers
			// are sorted, so "first" is canonical.
			if _, ok := e.serverAt[doc.Servers[i].Prefix]; !ok {
				e.serverAt[doc.Servers[i].Prefix] = i
			}
		}
	}
	// The mapping indexes read both sections: only reuse when neither moved.
	if prev != nil && shared&(secServers|secMappings) == secServers|secMappings {
		e.mappingsBy, e.hostPop = prev.mappingsBy, prev.hostPop
	} else {
		e.mappingsBy = make(map[uint32][]int)
		e.hostPop = map[uint32]int{}
		for i := range doc.Mappings {
			m := &doc.Mappings[i]
			e.mappingsBy[m.ClientAS] = append(e.mappingsBy[m.ClientAS], i)
			if si, ok := e.serverAt[m.Serving]; ok {
				e.hostPop[doc.Servers[si].HostAS]++
			}
		}
	}
	switch {
	case shared&secMesh != 0:
		e.meshWorst = prev.meshWorst
	case e.MeshDoc != nil:
		e.meshWorst = rankMeshPairs(e.MeshDoc)
	}
}

// activityTotal sums an epoch's activity in the order its JSON lists the
// ASes (topology.ASNsByText: 10 before 9), the order it was summed in when
// the document was keyed by strings. The total's low bits reach every share
// /v1/top, /v1/as and the series serve.
func activityTotal(act map[topology.ASN]float64) float64 {
	var total float64
	for _, en := range topology.ASNsByText(act) {
		total += en.Value
	}
	return total
}

// Info is one epoch's metadata line.
type Info struct {
	ID             int          `json:"id"`
	At             simtime.Time `json:"at_hours"`
	ActivePrefixes int          `json:"active_prefixes"`
	ASes           int          `json:"ases"`
	Servers        int          `json:"servers"`
	Mappings       int          `json:"mappings"`
	EncodedBytes   int          `json:"encoded_bytes"`
	SharedSections int          `json:"shared_sections"`
	MeshPairs      int          `json:"mesh_pairs,omitempty"`
}

// Info summarizes the epoch.
func (e *Epoch) Info() Info {
	return Info{
		ID:             e.ID,
		At:             e.At,
		ActivePrefixes: len(e.Doc.ActivePrefixes),
		ASes:           len(e.Doc.ASActivity),
		Servers:        len(e.Doc.Servers),
		Mappings:       len(e.Doc.Mappings),
		EncodedBytes:   len(e.Encoded),
		SharedSections: e.SharedSections,
		MeshPairs:      e.meshPairCount(),
	}
}

func (e *Epoch) meshPairCount() int {
	if e.MeshDoc == nil {
		return 0
	}
	return len(e.MeshDoc.Pairs)
}

// Infos lists every epoch's metadata, oldest first.
func (s *Store) Infos() []Info { return infosIn(s.Snapshot()) }

func infosIn(es []*Epoch) []Info {
	out := make([]Info, len(es))
	for i, e := range es {
		out[i] = e.Info()
	}
	return out
}

// firstK cuts a ranking down to its k leading entries (none for a negative
// k, all of them for a large one), capped so appending to the result cannot
// write into the shared ranking behind it.
func firstK[T any](ranked []T, k int) []T {
	k = min(max(k, 0), len(ranked))
	return ranked[:k:k]
}

// TopASes returns the k most active ASes of the epoch (activity
// descending, ASN ascending on ties).
func (e *Epoch) TopASes(k int) []ASRank { return firstK(e.ranked, k) }

// MeshRank is one AS pair's position in the epoch's worst-latency ranking.
type MeshRank struct {
	A         uint32  `json:"a"`
	B         uint32  `json:"b"`
	MeanRTTms float64 `json:"mean_rtt_ms"`
	MinRTTms  float64 `json:"min_rtt_ms"`
	Loss      float64 `json:"loss"`
	Complete  bool    `json:"complete"`
}

// rankMeshPairs orders pairs worst-first: mean RTT descending, canonical
// key ascending on ties — one total order, so rankings are deterministic.
func rankMeshPairs(mesh *core.MeshDocument) []MeshRank {
	out := make([]MeshRank, 0, len(mesh.Pairs))
	for i := range mesh.Pairs {
		p := &mesh.Pairs[i]
		if p.Probes == p.Lost {
			continue // no surviving pings: nothing to rank
		}
		out = append(out, MeshRank{
			A: p.Lo, B: p.Hi,
			MeanRTTms: p.MeanRTT, MinRTTms: p.MinRTT,
			Loss: p.LossRate(), Complete: p.Complete,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MeanRTTms != out[j].MeanRTTms {
			return out[i].MeanRTTms > out[j].MeanRTTms
		}
		return core.MeshKey(out[i].A, out[i].B) < core.MeshKey(out[j].A, out[j].B)
	})
	return out
}

// RankMeshPairs returns mesh's k worst pairs by mean RTT, the same total
// order the /v1/latency/top route serves.
func RankMeshPairs(mesh *core.MeshDocument, k int) []MeshRank {
	return firstK(rankMeshPairs(mesh), k)
}

// WorstMeshPairs returns the k highest-mean-RTT pairs of the epoch's mesh.
func (e *Epoch) WorstMeshPairs(k int) []MeshRank { return firstK(e.meshWorst, k) }

// ServiceMapping is one user→host mapping entry enriched with the serving
// side's scan metadata and a popularity proxy.
type ServiceMapping struct {
	Domain        string            `json:"domain"`
	ServingPrefix topology.PrefixID `json:"serving_prefix"`
	HostAS        uint32            `json:"host_as,omitempty"`
	Org           string            `json:"org,omitempty"`
	// HostClients counts how many client ASes across the whole map are
	// served by the same host AS — the ranking signal for top-K.
	HostClients int `json:"host_clients"`
}

// ASView is the per-AS answer: activity, provenance, and the AS's top
// service mappings.
type ASView struct {
	ASN           uint32               `json:"asn"`
	Epoch         int                  `json:"epoch"`
	Activity      float64              `json:"activity"`
	Share         float64              `json:"share"`
	Source        *core.ActivitySource `json:"source,omitempty"`
	Services      []ServiceMapping     `json:"services,omitempty"`
	TotalServices int                  `json:"total_services"`
}

// knows reports whether the epoch has anything to say about asn — activity,
// a source label or a service mapping — and so whether ASView answers.
func (e *Epoch) knows(asn uint32) bool {
	_, hasAct := e.Doc.ASActivity[topology.ASN(asn)]
	_, hasSrc := e.Doc.Sources[topology.ASN(asn)]
	return hasAct || hasSrc || len(e.mappingsBy[asn]) > 0
}

// ASView assembles the per-AS view with the AS's top-k service mappings,
// ranked by how many client ASes the serving host covers (most popular
// first; domain name breaks ties).
func (e *Epoch) ASView(asn uint32, k int) (ASView, bool) {
	if !e.knows(asn) {
		return ASView{}, false
	}
	idxs, a := e.mappingsBy[asn], topology.ASN(asn)
	v := ASView{ASN: asn, Epoch: e.ID, Activity: e.Doc.ASActivity[a], TotalServices: len(idxs)}
	if e.totalAct > 0 {
		v.Share = v.Activity / e.totalAct
	}
	if src, ok := e.Doc.Sources[a]; ok {
		v.Source = &src
	}
	svcs := make([]ServiceMapping, 0, len(idxs))
	for _, i := range idxs {
		m := &e.Doc.Mappings[i]
		sm := ServiceMapping{Domain: m.Domain, ServingPrefix: m.Serving}
		if si, ok := e.serverAt[m.Serving]; ok {
			sm.HostAS = e.Doc.Servers[si].HostAS
			sm.Org = e.Doc.Servers[si].Org
			sm.HostClients = e.hostPop[sm.HostAS]
		}
		svcs = append(svcs, sm)
	}
	sort.SliceStable(svcs, func(i, j int) bool {
		if svcs[i].HostClients != svcs[j].HostClients {
			return svcs[i].HostClients > svcs[j].HostClients
		}
		return svcs[i].Domain < svcs[j].Domain
	})
	if k >= 0 && k < len(svcs) {
		svcs = svcs[:k:k]
	}
	v.Services = svcs
	return v, true
}

// EpochValue is one epoch's scalar in a longitudinal series.
type EpochValue struct {
	Epoch    int          `json:"epoch"`
	At       simtime.Time `json:"at_hours"`
	Activity float64      `json:"activity"`
	Share    float64      `json:"share"`
}

// seriesIn tracks one AS's activity across every epoch of one snapshot —
// the longitudinal view the paper's "Daily" refresh target implies. It takes
// the epoch view explicitly so a handler can keep one snapshot consistent
// across a whole response.
func seriesIn(es []*Epoch, asn uint32) []EpochValue {
	out := make([]EpochValue, len(es))
	for i, e := range es {
		out[i] = EpochValue{Epoch: e.ID, At: e.At, Activity: e.Doc.ASActivity[topology.ASN(asn)]}
		if e.totalAct > 0 {
			out[i].Share = out[i].Activity / e.totalAct
		}
	}
	return out
}

// LinkLoad returns the epoch's ground-truth daily bytes over the a–b
// inter-AS link, read off the matrix's dense views (BuildMatrixWorkers always
// sets them, and AppendMap* the topology they are indexed by). It is the one
// reader of the epoch's LinkSource, so the first call may build the matrix.
// ok is false when the epoch carries no matrix or the link is unknown.
func (e *Epoch) LinkLoad(a, b uint32) (float64, bool) {
	if e.mx == nil {
		return 0, false
	}
	mx := e.mx.Matrix()
	if mx == nil {
		return 0, false
	}
	ia, oka := e.top.Index(topology.ASN(a))
	ib, okb := e.top.Index(topology.ASN(b))
	if oka && okb {
		if id := mx.Links.IDBetween(ia, ib); id >= 0 {
			return mx.LinkLoadDense[id], true
		}
	}
	return 0, false
}

// DiffDocument is the serializable epoch-to-epoch diff, derived via
// core.DiffMaps over the two epochs' users components. All slices are
// sorted, so marshaling it is deterministic.
type DiffDocument struct {
	EpochA         int                 `json:"epoch_a"`
	EpochB         int                 `json:"epoch_b"`
	AtA            simtime.Time        `json:"at_a_hours"`
	AtB            simtime.Time        `json:"at_b_hours"`
	StablePrefixes int                 `json:"stable_prefixes"`
	Appeared       []topology.PrefixID `json:"appeared"`
	Vanished       []topology.PrefixID `json:"vanished"`
	Jaccard        float64             `json:"jaccard"`
	Shifts         []ShiftEntry        `json:"shifts"`
}

// ShiftEntry is one AS's activity-share change.
type ShiftEntry struct {
	ASN    uint32  `json:"asn"`
	Before float64 `json:"before"`
	After  float64 `json:"after"`
	Delta  float64 `json:"delta"`
}

// Diff compares two epochs' users components. minShift filters the
// activity shifts worth reporting (absolute share change).
func (s *Store) Diff(a, b int, minShift float64) (*DiffDocument, error) {
	ea, ok := s.Epoch(a)
	if !ok {
		return nil, fmt.Errorf("mapstore: no epoch %d", a)
	}
	eb, ok := s.Epoch(b)
	if !ok {
		return nil, fmt.Errorf("mapstore: no epoch %d", b)
	}
	return diffEpochs(ea, eb, minShift), nil
}

// diffEpochs compares two resolved epochs (the cacheable inner form: the
// pair is immutable, so the result never changes).
func diffEpochs(ea, eb *Epoch, minShift float64) *DiffDocument {
	d := core.DiffMaps(ea.Doc, eb.Doc, minShift)
	out := &DiffDocument{
		EpochA:         ea.ID,
		EpochB:         eb.ID,
		AtA:            ea.At,
		AtB:            eb.At,
		StablePrefixes: d.StablePrefixes,
		Jaccard:        d.Jaccard(),
		// Never nil: an empty list is [] on this route.
		Appeared: append([]topology.PrefixID{}, d.PrefixesAppeared...),
		Vanished: append([]topology.PrefixID{}, d.PrefixesVanished...),
		Shifts:   make([]ShiftEntry, 0, len(d.ActivityShifts)),
	}
	for _, sh := range d.ActivityShifts {
		out.Shifts = append(out.Shifts, ShiftEntry{
			ASN: uint32(sh.ASN), Before: sh.Before, After: sh.After, Delta: sh.Delta(),
		})
	}
	return out
}
