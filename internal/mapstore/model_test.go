package mapstore_test

// The reference model of the serving stack: the dumbest server that says
// what itm-serve must say. Epochs are a slice of documents, and every request
// is answered from them from scratch and rendered with encoding/json — no
// cache, no section sharing, no WAL, no ITMB, no call into mapstore's query
// layer. Being package mapstore_test, it sees only mapstore's exported API,
// and of that uses the codec alone, as the black box that maps a document to
// the bytes /v1/map?format=binary serves and encoded_bytes counts. It does
// not model ITMB bytes, metrics, the cache or ETag values: validators are
// held to their semantics by the ledger in modelseq_test.go.

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"

	"itmap/internal/core"
	"itmap/internal/mapstore"
	"itmap/internal/order"
	"itmap/internal/simtime"
	"itmap/internal/topology"
)

type modelEpoch struct {
	at     simtime.Time
	doc    *core.MapDocument  // normalized
	mesh   *core.MeshDocument // normalized, nil without one
	shared int                // sections equal to the previous epoch's
	enc    []byte             // the codec's bytes for doc
}

type model struct{ epochs []modelEpoch }

// publish records an append the store acknowledged.
func (m *model) publish(at simtime.Time, doc *core.MapDocument, mesh *core.MeshDocument) error {
	doc.Normalize()
	if mesh != nil {
		mesh.Normalize()
	}
	enc, err := mapstore.EncodeDocument(doc)
	if err != nil {
		return err
	}
	e := modelEpoch{at: at, doc: doc, mesh: mesh, enc: enc}
	if n := len(m.epochs); n > 0 {
		p := m.epochs[n-1].doc
		for _, same := range []bool{
			slices.Equal(p.ActivePrefixes, doc.ActivePrefixes), maps.Equal(p.PrefixHitRates, doc.PrefixHitRates),
			maps.Equal(p.ASActivity, doc.ASActivity), maps.Equal(p.Sources, doc.Sources),
			slices.Equal(p.Servers, doc.Servers), slices.Equal(p.Mappings, doc.Mappings),
		} {
			if same {
				e.shared++
			}
		}
	}
	m.epochs = append(m.epochs, e)
	return nil
}

// answer is what the model says one request gets.
type answer struct {
	status int
	ctype  string
	body   []byte // nil: any JSON body that parses
	tagged bool   // a cached route: a 200 carries an ETag, which If-None-Match can match
	scope  string // the representation the validator ledger tracks
}

// modelReq is one request as its route's checks resolve it.
type modelReq struct {
	vals     map[string]string // path wildcards
	query    url.Values
	e, to    int // the epoch answered from; a diff runs from e to to
	a, b     uint32
	k        int
	minShift float64
	pair     *core.MeshPairDocument
}

// A check passes a request on (nil) or refuses it.
type check func(m *model, q *modelReq) *refusal

type refusal struct {
	status int
	msg    string
}

func refuse(status int, format string, args ...any) *refusal {
	return &refusal{status, fmt.Sprintf(format, args...)}
}

// modelRoutes is the API. A route's checks run in order, so the list is its
// error precedence, and the last check asks whether the URL names anything.
var modelRoutes = []struct {
	pattern string
	checks  []check
	render  func(m *model, q *modelReq) any // nil: status, type and a parsing body only
	tagged  bool
}{
	{"/healthz", nil, nil, false},
	{"/v1/slo", nil, nil, false},
	{"/v1/epochs", nil, (*model).epochsBody, true},
	{"/v1/map/{epoch}", []check{mapEpoch, mapFormat}, (*model).mapBody, true},
	{"/v1/top", []check{epochParam, kParam}, (*model).topBody, true},
	{"/v1/as/{asn}", []check{asnParam, epochParam, kParam, asKnown}, (*model).asBody, true},
	{"/v1/diff/{a}/{b}", []check{epochPair, minShiftParam, pairEpochs}, (*model).diffBody, true},
	{"/v1/path/{a}/{b}", []check{asPair, epochParam, hasMesh, pairKnown}, (*model).pathBody, true},
	{"/v1/latency/{a}/{b}", []check{asPair, epochParam, hasMesh, pairKnown}, (*model).latencyBody, true},
	{"/v1/latency/top", []check{epochParam, hasMesh, kParam}, (*model).meshTopBody, true},
	{"/v1/obs/history", nil, nil, true},
	{"/v1/obs/history/{family}", []check{familyKnown}, nil, true},
}

const textPlain = "text/plain; charset=utf-8"

// answer is the unconditional answer to method on target.
func (m *model) answer(method, target string) answer {
	u, err := url.Parse(target)
	if err != nil {
		panic(err)
	}
	for _, rt := range modelRoutes {
		vals, ok := matchPattern(rt.pattern, u.Path)
		if !ok {
			continue
		}
		if method != http.MethodGet {
			return answer{status: http.StatusMethodNotAllowed, ctype: textPlain, body: []byte("Method Not Allowed\n")}
		}
		q := &modelReq{vals: vals, query: u.Query()}
		for _, c := range rt.checks {
			if r := c(m, q); r != nil {
				return answer{status: r.status, ctype: "application/json", body: jsonBody(obj{{"error", r.msg}})}
			}
		}
		a := answer{status: http.StatusOK, ctype: "application/json", tagged: rt.tagged, scope: target}
		if rt.render == nil {
			return a
		}
		v := rt.render(m, q)
		if b, ok := v.([]byte); ok {
			a.ctype, a.body = "application/octet-stream", b
		} else {
			a.body = jsonBody(v)
		}
		return a
	}
	return answer{status: http.StatusNotFound, ctype: textPlain, body: []byte("404 page not found\n")}
}

func matchPattern(pattern, path string) (map[string]string, bool) {
	ps, xs := strings.Split(pattern, "/"), strings.Split(path, "/")
	if len(ps) != len(xs) {
		return nil, false
	}
	vals := map[string]string{}
	for i, p := range ps {
		switch {
		case strings.HasPrefix(p, "{") && xs[i] != "":
			vals[strings.Trim(p, "{}")] = xs[i]
		case p != xs[i]:
			return nil, false
		}
	}
	return vals, true
}

// matches is RFC 9110 §13.1.2's If-None-Match for a URL that currently has a
// representation, with validator tag: "*", or tag among the listed ones. A
// URL without one never matches: its conditional answer is its
// unconditional one.
func matches(inm, tag string) bool {
	if inm == "*" {
		return true
	}
	for _, t := range strings.Split(inm, ",") {
		if strings.TrimSpace(t) == tag {
			return true
		}
	}
	return false
}

// --- the checks --------------------------------------------------------------

func (m *model) has(id int) bool { return id >= 0 && id < len(m.epochs) }

// epochID parses an epoch ID; in reports whether the model has that epoch.
func (m *model) epochID(raw string) (id int, ok, in bool) {
	id, err := strconv.Atoi(raw)
	return id, err == nil, err == nil && m.has(id)
}

// epochParam resolves ?epoch=, the latest epoch when it is absent.
func epochParam(m *model, q *modelReq) *refusal {
	raw := q.query.Get("epoch")
	if raw == "" {
		if len(m.epochs) == 0 {
			return refuse(http.StatusNotFound, "store has no epochs")
		}
		raw = strconv.Itoa(len(m.epochs) - 1)
	}
	id, ok, in := m.epochID(raw)
	switch {
	case !ok:
		return refuse(http.StatusNotFound, "bad epoch %q", raw)
	case !in:
		return refuse(http.StatusNotFound, "no epoch %d", id)
	}
	q.e = id
	return nil
}

func mapEpoch(m *model, q *modelReq) *refusal {
	id, ok, in := m.epochID(q.vals["epoch"])
	switch {
	case !ok:
		return refuse(http.StatusBadRequest, "bad epoch %q", q.vals["epoch"])
	case !in:
		return refuse(http.StatusNotFound, "no epoch %d", id)
	}
	q.e = id
	return nil
}

func mapFormat(_ *model, q *modelReq) *refusal {
	if f := q.query.Get("format"); f != "" && f != "json" && f != "binary" {
		return refuse(http.StatusBadRequest, "unknown format %q", f)
	}
	return nil
}

func epochPair(m *model, q *modelReq) *refusal {
	var okA, okB bool
	q.e, okA, _ = m.epochID(q.vals["a"])
	q.to, okB, _ = m.epochID(q.vals["b"])
	if !okA || !okB {
		return refuse(http.StatusBadRequest, "bad epoch pair %q/%q", q.vals["a"], q.vals["b"])
	}
	return nil
}

func pairEpochs(m *model, q *modelReq) *refusal {
	for _, id := range []int{q.e, q.to} {
		if !m.has(id) {
			return refuse(http.StatusNotFound, "mapstore: no epoch %d", id)
		}
	}
	return nil
}

func kParam(_ *model, q *modelReq) *refusal {
	q.k = 10
	if raw := q.query.Get("k"); raw != "" {
		k, err := strconv.Atoi(raw)
		if err != nil {
			return refuse(http.StatusBadRequest, "bad k %q", raw)
		}
		q.k = k
	}
	return nil
}

func minShiftParam(_ *model, q *modelReq) *refusal {
	q.minShift = 0.01
	if raw := q.query.Get("min_shift"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return refuse(http.StatusBadRequest, "bad min_shift %q", raw)
		}
		q.minShift = v
	}
	return nil
}

func asnParam(_ *model, q *modelReq) *refusal {
	v, err := strconv.ParseUint(q.vals["asn"], 10, 32)
	if err != nil {
		return refuse(http.StatusBadRequest, "bad ASN %q", q.vals["asn"])
	}
	q.a = uint32(v)
	return nil
}

func asPair(_ *model, q *modelReq) *refusal {
	a, errA := strconv.ParseUint(q.vals["a"], 10, 32)
	b, errB := strconv.ParseUint(q.vals["b"], 10, 32)
	if errA != nil || errB != nil {
		return refuse(http.StatusBadRequest, "bad AS pair %q/%q", q.vals["a"], q.vals["b"])
	}
	q.a, q.b = uint32(a), uint32(b)
	return nil
}

func asKnown(m *model, q *modelReq) *refusal {
	doc := m.epochs[q.e].doc
	_, hasAct := doc.ASActivity[topology.ASN(q.a)]
	_, hasSrc := doc.Sources[topology.ASN(q.a)]
	if hasAct || hasSrc || len(services(doc, q.a)) > 0 {
		return nil
	}
	return refuse(http.StatusNotFound, "AS %d not in epoch %d", q.a, q.e)
}

func hasMesh(m *model, q *modelReq) *refusal {
	if m.epochs[q.e].mesh == nil {
		return refuse(http.StatusNotFound, "epoch %d has no mesh sections", q.e)
	}
	return nil
}

func pairKnown(m *model, q *modelReq) *refusal {
	pairs := m.epochs[q.e].mesh.Pairs
	for i := range pairs {
		if pairs[i].Lo == min(q.a, q.b) && pairs[i].Hi == max(q.a, q.b) {
			q.pair = &pairs[i]
			return nil
		}
	}
	return refuse(http.StatusNotFound, "no mesh measurement for AS pair %d/%d in epoch %d", q.a, q.b, q.e)
}

// historyFamily is the one family the model knows the history ring holds:
// the store ticks it on every publish, and every publish records a sample.
const historyFamily = "itm_mapstore_epochs_total"

func familyKnown(m *model, q *modelReq) *refusal {
	if q.vals["family"] != historyFamily || len(m.epochs) == 0 {
		return refuse(http.StatusNotFound, "no family %q in history", q.vals["family"])
	}
	return nil
}

// --- the bodies --------------------------------------------------------------

// obj is a JSON object whose keys keep the order they are listed in, which is
// the order the wire shows them; a field omitted when empty is left out by
// the code that builds the object.
type obj []field

type field struct {
	k string
	v any
}

func (o obj) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for i, f := range o {
		k, _ := json.Marshal(f.k)
		v, err := json.Marshal(f.v)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, k...), ':'), v...)
	}
	return append(b, '}'), nil
}

// jsonBody renders v the way the wire does: two-space indent, newline.
func jsonBody(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

func firstK[T any](s []T, k int) []T { return s[:min(max(k, 0), len(s))] }

func (m *model) epochsBody(*modelReq) any {
	infos := []obj{}
	for i, e := range m.epochs {
		d := e.doc
		info := obj{{"id", i}, {"at_hours", e.at}, {"active_prefixes", len(d.ActivePrefixes)}, {"ases", len(d.ASActivity)},
			{"servers", len(d.Servers)}, {"mappings", len(d.Mappings)}, {"encoded_bytes", len(e.enc)}, {"shared_sections", e.shared}}
		if e.mesh != nil && len(e.mesh.Pairs) > 0 {
			info = append(info, field{"mesh_pairs", len(e.mesh.Pairs)})
		}
		infos = append(infos, info)
	}
	return obj{{"epochs", infos}}
}

func (m *model) mapBody(q *modelReq) any {
	if q.query.Get("format") == "binary" {
		return m.epochs[q.e].enc
	}
	return m.epochs[q.e].doc
}

// activity reads an epoch's per-AS activity and sums it twice, because the
// wire fixes the order of both float sums: the shares /v1/top, /v1/as and
// the series serve divide by the sum in the order the document's JSON keys
// sort in, the shares /v1/diff serves by the sum in ascending ASN order.
func activity(doc *core.MapDocument) (act map[uint32]float64, byKey, byASN float64) {
	act, keyed := map[uint32]float64{}, map[string]float64{}
	for asn, v := range doc.ASActivity {
		act[uint32(asn)], keyed[strconv.FormatUint(uint64(asn), 10)] = v, v
	}
	for _, k := range order.Keys(keyed) {
		byKey += keyed[k]
	}
	for _, asn := range order.Keys(act) {
		byASN += act[asn]
	}
	return act, byKey, byASN
}

// share and divide are an AS's share of a total: the ranking routes give a
// total that is not positive no shares, the diff only a zero one.
func share(v, total float64) float64 {
	if total > 0 {
		return v / total
	}
	return 0
}

func divide(v, total float64) float64 {
	if total == 0 {
		return 0
	}
	return v / total
}

func (m *model) topBody(q *modelReq) any {
	act, total, _ := activity(m.epochs[q.e].doc)
	asns := order.Keys(act)
	sort.SliceStable(asns, func(i, j int) bool { return act[asns[i]] > act[asns[j]] })
	top := []obj{}
	for _, asn := range firstK(asns, q.k) {
		top = append(top, obj{{"asn", asn}, {"activity", act[asn]}, {"share", share(act[asn], total)}})
	}
	return obj{{"epoch", q.e}, {"top", top}}
}

// services lists asn's mappings the way /v1/as ranks them: by how many
// mappings of the whole map the serving host answers — a serving prefix's
// host is the first server listed for it — then by domain.
func services(doc *core.MapDocument, asn uint32) []obj {
	host := func(prefix topology.PrefixID) *core.ServerDocument {
		for i := range doc.Servers {
			if doc.Servers[i].Prefix == prefix {
				return &doc.Servers[i]
			}
		}
		return nil
	}
	type service struct {
		mp      core.MappingDocument
		srv     *core.ServerDocument
		clients int
	}
	var list []service
	for _, mp := range doc.Mappings {
		if mp.ClientAS != asn {
			continue
		}
		s := service{mp: mp, srv: host(mp.Serving)}
		for _, other := range doc.Mappings {
			if o := host(other.Serving); s.srv != nil && o != nil && o.HostAS == s.srv.HostAS {
				s.clients++
			}
		}
		list = append(list, s)
	}
	sort.SliceStable(list, func(i, j int) bool { return list[i].clients > list[j].clients })
	out := []obj{}
	for _, s := range list {
		o := obj{{"domain", s.mp.Domain}, {"serving_prefix", s.mp.Serving}}
		if s.srv != nil && s.srv.HostAS != 0 {
			o = append(o, field{"host_as", s.srv.HostAS})
		}
		if s.srv != nil && s.srv.Org != "" {
			o = append(o, field{"org", s.srv.Org})
		}
		out = append(out, append(o, field{"host_clients", s.clients}))
	}
	return out
}

func (m *model) asBody(q *modelReq) any {
	doc := m.epochs[q.e].doc
	act, total, _ := activity(doc)
	view := obj{{"asn", q.a}, {"epoch", q.e}, {"activity", act[q.a]}, {"share", share(act[q.a], total)}}
	if src, ok := doc.Sources[topology.ASN(q.a)]; ok {
		view = append(view, field{"source", src})
	}
	all := services(doc, q.a)
	if listed := all; len(all) > 0 && q.k != 0 {
		if q.k > 0 && q.k < len(all) {
			listed = all[:q.k]
		}
		view = append(view, field{"services", listed})
	}
	series := []obj{}
	for i, e := range m.epochs {
		act, total, _ := activity(e.doc)
		series = append(series, obj{{"epoch", i}, {"at_hours", e.at}, {"activity", act[q.a]}, {"share", share(act[q.a], total)}})
	}
	return append(view, field{"total_services", len(all)}, field{"series", series})
}

func (m *model) diffBody(q *modelReq) any {
	a, b := m.epochs[q.e].doc, m.epochs[q.to].doc
	// A normalized document lists its prefixes in ascending numeric order.
	appeared, vanished, stable := []topology.PrefixID{}, []topology.PrefixID{}, 0
	for _, p := range b.ActivePrefixes {
		if slices.Contains(a.ActivePrefixes, p) {
			stable++
		} else {
			appeared = append(appeared, p)
		}
	}
	for _, p := range a.ActivePrefixes {
		if !slices.Contains(b.ActivePrefixes, p) {
			vanished = append(vanished, p)
		}
	}
	jaccard := 1.0
	if union := stable + len(appeared) + len(vanished); union > 0 {
		jaccard = float64(stable) / float64(union)
	}
	actA, _, totalA := activity(a)
	actB, _, totalB := activity(b)
	before := func(asn uint32) float64 { return divide(actA[asn], totalA) }
	after := func(asn uint32) float64 { return divide(actB[asn], totalB) }
	// Every AS of a side whose activity sums to nonzero gets a share on both
	// sides; a zero-sum side contributes no ASes.
	var asns []uint32
	if totalA != 0 {
		asns = append(asns, order.Keys(actA)...)
	}
	if totalB != 0 {
		asns = append(asns, order.Keys(actB)...)
	}
	slices.Sort(asns)
	asns = slices.Compact(asns)
	sort.SliceStable(asns, func(i, j int) bool {
		return math.Abs(after(asns[i])-before(asns[i])) > math.Abs(after(asns[j])-before(asns[j]))
	})
	shifts := []obj{}
	for _, asn := range asns {
		if d := after(asn) - before(asn); d >= q.minShift || d <= -q.minShift {
			shifts = append(shifts, obj{{"asn", asn}, {"before", before(asn)}, {"after", after(asn)}, {"delta", d}})
		}
	}
	return obj{{"epoch_a", q.e}, {"epoch_b", q.to}, {"at_a_hours", m.epochs[q.e].at}, {"at_b_hours", m.epochs[q.to].at},
		{"stable_prefixes", stable}, {"appeared", appeared}, {"vanished", vanished}, {"jaccard", jaccard}, {"shifts", shifts}}
}

func loss(p *core.MeshPairDocument) float64 {
	if p.Probes == 0 {
		return 0
	}
	return float64(p.Lost) / float64(p.Probes)
}

func (m *model) pathBody(q *modelReq) any {
	p := q.pair
	o := obj{{"epoch", q.e}, {"at_hours", m.epochs[q.e].at}, {"a", p.Lo}, {"b", p.Hi}}
	if len(p.Path) > 0 {
		o = append(o, field{"path", p.Path})
	}
	return append(o, field{"complete", p.Complete}, field{"confidence", p.Confidence})
}

func (m *model) latencyBody(q *modelReq) any {
	p := q.pair
	return obj{{"epoch", q.e}, {"at_hours", m.epochs[q.e].at}, {"a", p.Lo}, {"b", p.Hi},
		{"probes", p.Probes}, {"lost", p.Lost}, {"loss", loss(p)},
		{"min_rtt_ms", p.MinRTT}, {"mean_rtt_ms", p.MeanRTT}, {"max_rtt_ms", p.MaxRTT},
		{"complete", p.Complete}, {"confidence", p.Confidence}}
}

// meshTopBody ranks the pairs that kept a ping, worst mean RTT first; pairs
// are listed in key order, which breaks ties.
func (m *model) meshTopBody(q *modelReq) any {
	var ranked []core.MeshPairDocument
	for _, p := range m.epochs[q.e].mesh.Pairs {
		if p.Probes != p.Lost {
			ranked = append(ranked, p)
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].MeanRTT > ranked[j].MeanRTT })
	top := []obj{}
	for _, p := range firstK(ranked, q.k) {
		top = append(top, obj{{"a", p.Lo}, {"b", p.Hi}, {"mean_rtt_ms", p.MeanRTT}, {"min_rtt_ms", p.MinRTT},
			{"loss", loss(&p)}, {"complete", p.Complete}})
	}
	return obj{{"epoch", q.e}, {"top", top}}
}
