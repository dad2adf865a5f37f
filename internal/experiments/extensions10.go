package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"

	"itmap/internal/mapstore"
)

// RunE25 exercises the serving layer end to end: a three-day measurement
// campaign (the paper's "daily refresh" cadence, §3.1.2) ingested into the
// epoch-versioned store. It checks the properties the store is built on —
// the binary codec round-trips every campaign-produced map byte-identically
// and beats the JSON export by a wide margin, consecutive epochs of a
// slowly-drifting Internet share document sections structurally, the
// day-over-day prefix churn is small (high Jaccard), and the whole
// campaign — epoch bytes, diffs, link loads — is invariant under the
// matrix build's -workers setting.
func (e *Env) RunE25() *Result {
	r := &Result{ID: "E25", Title: "Epoch-versioned map store over a multi-day campaign"}
	const days = 3
	st := mapstore.NewStore()
	if err := BuildEpochStore(st, e.W, days, 1, MeshSpec{}); err != nil {
		r.Values = append(r.Values, Value{Name: "campaign", Paper: "n/a", Measured: err.Error(), Pass: false})
		return r
	}

	// Codec: every epoch decodes back to a document that re-encodes to the
	// same bytes, and the binary form is far smaller than the JSON export.
	encTotal, jsonTotal := 0, 0
	roundTrips := true
	for _, ep := range st.Snapshot() {
		doc, derr := mapstore.DecodeDocument(ep.Encoded)
		if derr != nil {
			roundTrips = false
			continue
		}
		re, eerr := mapstore.EncodeDocument(doc)
		if eerr != nil || !bytes.Equal(re, ep.Encoded) {
			roundTrips = false
		}
		var buf bytes.Buffer
		if err := ep.Doc.Export(&buf); err != nil {
			roundTrips = false
			continue
		}
		encTotal += len(ep.Encoded)
		jsonTotal += buf.Len()
	}
	r.Values = append(r.Values, Value{
		Name:     "binary codec round-trip",
		Paper:    "n/a (serving extension)",
		Measured: fmt.Sprintf("decode→re-encode byte-identical for %d epochs", st.Len()),
		Pass:     roundTrips && st.Len() == days,
	})
	ratio := 0.0
	if encTotal > 0 {
		ratio = float64(jsonTotal) / float64(encTotal)
	}
	r.Values = append(r.Values, Value{
		Name:     "codec size vs JSON export",
		Paper:    "n/a (serving extension)",
		Measured: fmt.Sprintf("%.1fx smaller (%d vs %d bytes over %d epochs)", ratio, encTotal, jsonTotal, st.Len()),
		Pass:     ratio >= 3,
	})

	// Structural sharing: a slowly-drifting world keeps most document
	// sections identical day over day, so later epochs alias them.
	sharing := make([]string, 0, days-1)
	minShared := -1
	for _, ep := range st.Snapshot()[1:] {
		sharing = append(sharing, fmt.Sprintf("%d/8", ep.SharedSections))
		if minShared < 0 || ep.SharedSections < minShared {
			minShared = ep.SharedSections
		}
	}
	r.Values = append(r.Values, Value{
		Name:     "structural sharing across epochs",
		Paper:    "n/a (serving extension)",
		Measured: fmt.Sprintf("sections shared with previous epoch: %v", sharing),
		Pass:     minShared >= 1,
	})

	// Day-over-day churn: the users component should be mostly stable —
	// the paper's premise that a daily refresh suffices.
	jaccards := make([]float64, 0, days-1)
	minJac := 1.0
	for d := 1; d < st.Len(); d++ {
		dd, err := st.Diff(d-1, d, 0.001)
		if err != nil {
			r.Values = append(r.Values, Value{Name: "diff", Paper: "n/a", Measured: err.Error(), Pass: false})
			return r
		}
		jaccards = append(jaccards, dd.Jaccard)
		if dd.Jaccard < minJac {
			minJac = dd.Jaccard
		}
	}
	r.Values = append(r.Values, Value{
		Name:     "day-over-day prefix Jaccard",
		Paper:    "maps change slowly day to day",
		Measured: fmt.Sprintf("%v", jaccards),
		Pass:     minJac >= 0.9,
	})

	// Worker invariance: rebuilding the whole campaign with a different
	// matrix parallelism must reproduce every epoch's encoded bytes, the
	// serialized diff, and the matrix-backed link loads exactly.
	st4 := mapstore.NewStore()
	if err := BuildEpochStore(st4, e.W, days, 4, MeshSpec{}); err != nil {
		r.Values = append(r.Values, Value{Name: "workers=4 campaign", Paper: "n/a", Measured: err.Error(), Pass: false})
		return r
	}
	parity := st4.Len() == st.Len()
	for d := 0; parity && d < st.Len(); d++ {
		a, _ := st.Epoch(d)
		b, _ := st4.Epoch(d)
		parity = bytes.Equal(a.Encoded, b.Encoded)
	}
	d1, err1 := st.Diff(0, days-1, 0.001)
	d4, err4 := st4.Diff(0, days-1, 0.001)
	if err1 != nil || err4 != nil {
		parity = false
	} else {
		j1, _ := json.Marshal(d1)
		j4, _ := json.Marshal(d4)
		parity = parity && bytes.Equal(j1, j4)
	}
	// Link loads come straight from the worker-sharded matrix build — the
	// part -workers actually touches — so sample real topology links.
	links := 0
	for i, li := range e.W.Top.Links() {
		if i >= 32 {
			break
		}
		v1, ok1 := st.Latest().LinkLoad(uint32(li.A), uint32(li.B))
		v4, ok4 := st4.Latest().LinkLoad(uint32(li.A), uint32(li.B))
		if ok1 != ok4 || v1 != v4 {
			parity = false
		}
		if ok1 && v1 > 0 {
			links++
		}
	}
	r.Values = append(r.Values, Value{
		Name:     "campaign invariant under -workers",
		Paper:    "n/a (determinism contract)",
		Measured: fmt.Sprintf("epoch bytes, diff JSON, and %d link loads identical for workers 1 vs 4", links),
		Pass:     parity && links > 0,
	})
	return r
}
