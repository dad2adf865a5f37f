package mapstore

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"itmap/internal/core"
	"itmap/internal/obs"
	"itmap/internal/obs/history"
	"itmap/internal/obs/slo"
	"itmap/internal/simtime"
)

// NewHandler exposes the store's query engine as an HTTP JSON API:
//
//	GET /healthz                  liveness + epoch count
//	GET /v1/epochs                epoch metadata, oldest first
//	GET /v1/map/{epoch}           full map document (?format=binary → ITMB)
//	GET /v1/top?epoch=&k=         top-K ASes by activity
//	GET /v1/as/{asn}?epoch=&k=    per-AS view + longitudinal series
//	GET /v1/diff/{a}/{b}?min_shift=  epoch-to-epoch diff
//	GET /v1/link/{a}/{b}?epoch=   ground-truth link load (if ingested)
//	GET /v1/path/{a}/{b}?epoch=   user↔user observed AS path (if meshed)
//	GET /v1/latency/{a}/{b}?epoch= user↔user RTT summary (if meshed)
//	GET /v1/latency/top?epoch=&k= worst mesh pairs by mean RTT
//	GET /v1/obs/history           telemetry history ring (stable families per sample)
//	GET /v1/obs/history/{family}  one family's series across the retained samples
//	GET /v1/slo                   SLO burn-rate report over the history ring
//
// The handler only reads store snapshots, so it serves concurrently with
// ingestion without locking; each request resolves one snapshot up front
// and answers entirely from it, so a concurrent append can never produce a
// half-old, half-new response. Responses are deterministic for a given
// store state — every slice the query layer returns is sorted — and flow
// through the epoch-keyed response cache (see cache.go): bodies encode
// once, revalidations answer 304 with zero body work.
//
// Every cached route is one row of the table below, and the row is only what
// the routes differ in: how to resolve a request and how to render its
// answer. What they have in common — take the snapshot, turn a refusal into
// its status, revalidate, look up, fill — is written once, in serve and
// serveCached.
func NewHandler(s *Store) http.Handler {
	h := &handler{s: s, eng: &slo.Engine{Objectives: slo.ServingObjectives()}}
	mux := http.NewServeMux()
	route := func(pattern string, fn http.HandlerFunc) {
		// Metrics label on the registered pattern, never the raw path:
		// cardinality stays bounded by the route table.
		mux.Handle(pattern, obs.InstrumentHandler(pattern, fn))
	}
	route("GET /healthz", h.healthz)
	route("GET /v1/slo", h.slo)
	for _, rt := range []struct {
		pattern string
		resolve resolver
		render  renderer
	}{
		{"GET /v1/epochs", resolveEpochs, renderEpochs},
		{"GET /v1/map/{epoch}", resolveMap, renderMap},
		{"GET /v1/top", resolveTop, renderTop},
		{"GET /v1/as/{asn}", resolveAS, renderAS},
		{"GET /v1/diff/{a}/{b}", resolveDiff, renderDiff},
		{"GET /v1/link/{a}/{b}", resolveLink, renderLink},
		{"GET /v1/path/{a}/{b}", resolveMeshPair("path"), renderMeshPath},
		{"GET /v1/latency/{a}/{b}", resolveMeshPair("latency"), renderMeshLatency},
		{"GET /v1/latency/top", resolveMeshTop, renderMeshTop},
		{"GET /v1/obs/history", h.resolveHistory, renderHistory},
		{"GET /v1/obs/history/{family}", h.resolveHistoryFamily, renderHistoryFamily},
	} {
		route(rt.pattern, h.serve(strings.TrimPrefix(rt.pattern, "GET "), rt.resolve, rt.render))
	}
	return mux
}

// request is one request resolved against one store snapshot: where its
// answer caches, the strong validator it carries, and the parameters the
// route's renderer reads. It is a plain value, built by the resolver and
// handed to the renderer, so serving a hit or a 304 allocates nothing for
// the answer it does not have to render.
type request struct {
	cache *responseCache
	key   string
	etag  string
	// stored, when set, is the whole answer instead of cache and key:
	// bytes the epoch already holds, served as they are.
	stored []byte

	// Each route fills the parameters its renderer reads.
	v        *epochList             // the snapshot, for answers that span epochs
	e, to    *Epoch                 // the epoch answered from; a diff runs from e to to
	a, b     uint32                 // path ASNs ({asn} is a)
	pair     *core.MeshPairDocument // the mesh pair a and b name
	k        int                    // ?k=
	minShift float64                // ?min_shift=
	snap     *history.Snapshot      // the history ring's snapshot
	family   string                 // {family}
}

// resolver is the first half of a route: parse the parameters, find the
// epochs in the request's snapshot, name cache, key and ETag — or refuse
// with a *statusErr. The order of its checks is the route's error
// precedence, and the last one asks whether the URL has a representation at
// all (an AS the epoch knows, a measured pair): If-None-Match is evaluated
// only after it, so "*" or a borrowed tag can never turn a 404 into a 304
// (RFC 9110 §13.1.2).
type resolver func(v *epochList, r *http.Request) (request, error)

// renderer is the second half: the body and content type for a resolved
// request, run on first touch only. It never answers a status of its own.
type renderer func(q request) ([]byte, string, error)

// serve is every cached route's handler: one atomic load resolves the
// request's store snapshot, and epoch resolution, series and caching all
// answer from it.
func (h *handler) serve(label string, resolve resolver, render renderer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q, err := resolve(h.s.cur.Load(), r)
		if err != nil {
			writeRenderErr(w, err)
			return
		}
		serveCached(w, r, label, q, render)
	}
}

type handler struct {
	s *Store
	// eng judges the serving objectives. Ring and registry resolve at
	// evaluation time, so the handler follows test-time obs/history swaps.
	eng *slo.Engine

	hmu sync.Mutex
	// History responses cache per ring generation: a new sample publishes a
	// new snapshot, so the cache swaps wholesale — the same
	// invalidate-by-construction scheme the store's epochList cache uses.
	//itm:guardedby hmu
	histGen int
	//itm:guardedby hmu
	histCache *responseCache
}

// historyCache returns the response cache for the snapshot's generation,
// replacing the previous generation's cache on first use.
func (h *handler) historyCache(snap *history.Snapshot) *responseCache {
	h.hmu.Lock()
	defer h.hmu.Unlock()
	if h.histCache == nil || h.histGen != snap.Gen {
		h.histGen = snap.Gen
		h.histCache = newResponseCache()
	}
	return h.histCache
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // network write failures have no recovery path here
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// jsonBody renders a value exactly as writeJSON would put it on the wire
// (indented + trailing newline), as cacheable bytes.
func jsonBody(v any) ([]byte, string, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, "", err
	}
	return append(b, '\n'), "application/json", nil
}

// Default query parameters, shared with the append-time prebake so the
// first post-append request for the common shapes is already cached.
const (
	defaultTopK     = 10
	defaultMinShift = 0.01
)

// Cache keys are normalized query shapes, so "?k=10", "?k=10&epoch=2" on
// epoch 2, and the bare default all collapse to one entry per epoch. A
// ranking's k keys clamped to the n entries it has, as firstK cuts it: every
// k past either end answers the same body, so no run of them fills the cache.
func topKey(k, n int) string { return "top?k=" + strconv.Itoa(min(max(k, 0), n)) }

func diffKey(a, b int, minShift float64) string {
	return "diff?a=" + strconv.Itoa(a) + "&b=" + strconv.Itoa(b) +
		"&min_shift=" + strconv.FormatFloat(minShift, 'g', -1, 64)
}

func meshTopKey(k, n int) string { return "latency/top?k=" + strconv.Itoa(min(max(k, 0), n)) }

func meshPairKey(kind string, a, b uint32) string {
	return kind + "?pair=" + strconv.FormatUint(core.MeshKey(a, b), 16)
}

// epochAt resolves an epoch ID inside one snapshot.
func epochAt(es []*Epoch, id int) (*Epoch, bool) {
	if id < 0 || id >= len(es) {
		return nil, false
	}
	return es[id], true
}

// epochIn resolves the optional ?epoch= selector (default: latest) against
// the request's snapshot.
func epochIn(v *epochList, r *http.Request) (*Epoch, error) {
	q := r.URL.Query().Get("epoch")
	if q == "" {
		if len(v.epochs) == 0 {
			return nil, notFound("store has no epochs")
		}
		return v.epochs[len(v.epochs)-1], nil
	}
	id, err := strconv.Atoi(q)
	if err != nil {
		return nil, notFound("bad epoch %q", q)
	}
	e, ok := epochAt(v.epochs, id)
	if !ok {
		return nil, notFound("no epoch %d", id)
	}
	return e, nil
}

// meshEpochIn is epochIn for the user↔user routes: the epoch must carry a
// mesh.
func meshEpochIn(v *epochList, r *http.Request) (*Epoch, error) {
	e, err := epochIn(v, r)
	if err != nil {
		return nil, err
	}
	if e.MeshDoc == nil {
		return nil, notFound("epoch %d has no mesh sections", e.ID)
	}
	return e, nil
}

func intParam(r *http.Request, name string, def int) (int, error) {
	q := r.URL.Query().Get(name)
	if q == "" {
		return def, nil
	}
	v, err := strconv.Atoi(q)
	if err != nil {
		return 0, badRequest("bad %s %q", name, q)
	}
	return v, nil
}

func pathASN(r *http.Request, name string) (uint32, error) {
	raw := r.PathValue(name)
	v, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, badRequest("bad ASN %q", raw)
	}
	return uint32(v), nil
}

// pathASPair parses the {a}/{b} ASNs of the pair-keyed routes.
func pathASPair(r *http.Request) (a, b uint32, err error) {
	a, errA := pathASN(r, "a")
	b, errB := pathASN(r, "b")
	if errA != nil || errB != nil {
		return 0, 0, badRequest("bad AS pair %q/%q", r.PathValue("a"), r.PathValue("b"))
	}
	return a, b, nil
}

// objectiveHealth is one objective's line in the deepened /healthz body.
type objectiveHealth struct {
	Name   string `json:"name"`
	Status string `json:"status"`
}

// healthz reports liveness plus per-objective SLO status: "ok" until an
// objective is violated, then "degraded" — liveness never turns into a
// crash-loop signal just because an SLO is burning.
func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	rep := h.eng.Evaluate()
	status := "ok"
	objs := make([]objectiveHealth, 0, len(rep.Objectives))
	for _, o := range rep.Objectives {
		if o.Status == slo.StatusViolated {
			status = "degraded"
		}
		objs = append(objs, objectiveHealth{Name: o.Name, Status: o.Status})
	}
	writeJSON(w, http.StatusOK, struct {
		Status string            `json:"status"`
		Epochs int               `json:"epochs"`
		SLO    []objectiveHealth `json:"slo"`
	}{Status: status, Epochs: h.s.Len(), SLO: objs})
}

// resolveHistory serves the telemetry history ring through the response
// cache: the ring's ETag is content-derived, so revalidations 304 and the
// body encodes once per generation.
func (h *handler) resolveHistory(*epochList, *http.Request) (request, error) {
	snap := history.Default().Snapshot()
	return request{cache: h.historyCache(snap), key: "history", etag: snap.ETag(), snap: snap}, nil
}

// resolveHistoryFamily serves one family's values across the retained
// samples.
func (h *handler) resolveHistoryFamily(_ *epochList, r *http.Request) (request, error) {
	fam, snap := r.PathValue("family"), history.Default().Snapshot()
	if !snap.HasFamily(fam) {
		return request{}, notFound("no family %q in history", fam)
	}
	return request{cache: h.historyCache(snap), key: "history/" + fam, etag: snap.FamilyETag(fam), snap: snap, family: fam}, nil
}

func renderHistory(q request) ([]byte, string, error) {
	b, err := q.snap.MarshalBody()
	return b, "application/json", err
}

func renderHistoryFamily(q request) ([]byte, string, error) {
	b, _, err := q.snap.MarshalFamilyBody(q.family)
	return b, "application/json", err
}

// slo serves the burn-rate report. The body depends on the live registry
// (the "now" point moves with every request served), so it is rendered
// fresh rather than cached — still byte-deterministic for a controlled
// request sequence, which the identity tests pin.
func (h *handler) slo(w http.ResponseWriter, r *http.Request) {
	b, err := h.eng.Evaluate().MarshalJSONBody()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

func resolveEpochs(v *epochList, _ *http.Request) (request, error) {
	return request{cache: v.cache, key: "epochs", etag: v.etag, v: v}, nil
}

func renderEpochs(q request) ([]byte, string, error) {
	return jsonBody(struct {
		Epochs []Info `json:"epochs"`
	}{Epochs: infosIn(q.v.epochs)})
}

func resolveMap(v *epochList, r *http.Request) (request, error) {
	id, err := strconv.Atoi(r.PathValue("epoch"))
	if err != nil {
		return request{}, badRequest("bad epoch %q", r.PathValue("epoch"))
	}
	e, ok := epochAt(v.epochs, id)
	if !ok {
		return request{}, notFound("no epoch %d", id)
	}
	switch f := r.URL.Query().Get("format"); f {
	case "", "json":
		return request{cache: e.cache, key: "map.json", etag: e.ETag, e: e}, nil
	case "binary":
		return request{etag: e.ETag, stored: e.Encoded}, nil
	default:
		return request{}, badRequest("unknown format %q", f)
	}
}

// renderMap writes the body with core's JSON writer into one buffer sized up
// front: entries at a few bytes over their mean width in -scale small maps.
// A field whose slot (Epoch.frags) holds bytes is copied; once the whole body
// has rendered, each empty slot gets its field's view of the body, which the
// cache keeps for good. Racing fills of a shared slot render equal bytes.
func renderMap(q request) ([]byte, string, error) {
	e, d := q.e, q.e.Doc
	size := 256 + 22*len(d.ActivePrefixes) + 28*len(d.PrefixHitRates) +
		34*(len(d.ASActivity)+len(d.Sources)) + 180*len(d.Servers) + 128*len(d.Mappings)
	b := make([]byte, 0, size)
	var start [core.JSONFields + 1]int
	for f := range core.JSONFields {
		start[f] = len(b)
		if frag := e.frags[f]; frag != nil {
			if held := frag.Load(); held != nil {
				b = append(b, *held...)
				continue
			}
		}
		var err error
		if b, err = d.AppendJSONField(b, f); err != nil {
			return nil, "", err
		}
	}
	start[core.JSONFields] = len(b)
	for f, frag := range e.frags {
		if frag != nil && frag.Load() == nil {
			view := b[start[f]:start[f+1]:start[f+1]]
			frag.CompareAndSwap(nil, &view)
		}
	}
	return b, "application/json", nil
}

func resolveTop(v *epochList, r *http.Request) (q request, err error) {
	if q.e, err = epochIn(v, r); err != nil {
		return q, err
	}
	if q.k, err = intParam(r, "k", defaultTopK); err != nil {
		return q, err
	}
	q.cache, q.key, q.etag = q.e.cache, topKey(q.k, len(q.e.ranked)), q.e.ETag
	return q, nil
}

// topResponse is the /v1/top body.
type topResponse struct {
	Epoch int      `json:"epoch"`
	Top   []ASRank `json:"top"`
}

func renderTop(q request) ([]byte, string, error) {
	return jsonBody(topResponse{Epoch: q.e.ID, Top: q.e.TopASes(q.k)})
}

func resolveAS(v *epochList, r *http.Request) (q request, err error) {
	if q.a, err = pathASN(r, "asn"); err != nil {
		return q, err
	}
	if q.e, err = epochIn(v, r); err != nil {
		return q, err
	}
	if q.k, err = intParam(r, "k", defaultTopK); err != nil {
		return q, err
	}
	if !q.e.knows(q.a) {
		return q, notFound("AS %d not in epoch %d", q.a, q.e.ID)
	}
	// The response spans the whole store (the longitudinal series), so it
	// caches on the snapshot, keyed by the fully-resolved query shape, and
	// carries the store ETag — one append invalidates it wholesale. A k
	// past either end lists all n services (ASView), so it keys as n.
	q.v, q.cache, q.etag = v, v.cache, v.etag
	if n := len(q.e.mappingsBy[q.a]); q.k < 0 || q.k > n {
		q.k = n
	}
	q.key = "as?asn=" + strconv.FormatUint(uint64(q.a), 10) +
		"&epoch=" + strconv.Itoa(q.e.ID) + "&k=" + strconv.Itoa(q.k)
	return q, nil
}

func renderAS(q request) ([]byte, string, error) {
	av, _ := q.e.ASView(q.a, q.k)
	return jsonBody(struct {
		ASView
		Series []EpochValue `json:"series"`
	}{ASView: av, Series: seriesIn(q.v.epochs, q.a)})
}

func resolveDiff(v *epochList, r *http.Request) (request, error) {
	a, errA := strconv.Atoi(r.PathValue("a"))
	b, errB := strconv.Atoi(r.PathValue("b"))
	if errA != nil || errB != nil {
		return request{}, badRequest("bad epoch pair %q/%q", r.PathValue("a"), r.PathValue("b"))
	}
	q := request{minShift: defaultMinShift}
	if raw := r.URL.Query().Get("min_shift"); raw != "" {
		var err error
		if q.minShift, err = strconv.ParseFloat(raw, 64); err != nil {
			return request{}, badRequest("bad min_shift %q", raw)
		}
	}
	var ok bool
	if q.e, ok = epochAt(v.epochs, a); !ok {
		return request{}, notFound("mapstore: no epoch %d", a)
	}
	if q.to, ok = epochAt(v.epochs, b); !ok {
		return request{}, notFound("mapstore: no epoch %d", b)
	}
	// A diff is pair-scoped and immutable; it caches on the newer epoch so
	// the entry ages out with the epochs themselves, never with appends.
	q.cache = q.e.cache
	if q.to.ID > q.e.ID {
		q.cache = q.to.cache
	}
	q.key, q.etag = diffKey(a, b, q.minShift), pairETag(q.e, q.to)
	return q, nil
}

func renderDiff(q request) ([]byte, string, error) {
	return jsonBody(diffEpochs(q.e, q.to, q.minShift))
}

func resolveLink(v *epochList, r *http.Request) (q request, err error) {
	if q.a, q.b, err = pathASPair(r); err != nil {
		return q, err
	}
	if q.e, err = epochIn(v, r); err != nil {
		return q, err
	}
	if _, ok := q.e.LinkLoad(q.a, q.b); !ok {
		return q, notFound("no link load for %d-%d in epoch %d", q.a, q.b, q.e.ID)
	}
	q.cache, q.etag = q.e.cache, q.e.ETag
	q.key = "link?a=" + strconv.FormatUint(uint64(q.a), 10) + "&b=" + strconv.FormatUint(uint64(q.b), 10)
	return q, nil
}

func renderLink(q request) ([]byte, string, error) {
	load, _ := q.e.LinkLoad(q.a, q.b)
	return jsonBody(struct {
		Epoch      int     `json:"epoch"`
		A          uint32  `json:"a"`
		B          uint32  `json:"b"`
		DailyBytes float64 `json:"daily_bytes"`
	}{Epoch: q.e.ID, A: q.a, B: q.b, DailyBytes: load})
}

// resolveMeshPair is /v1/path and /v1/latency: two views of the same pair
// lookup, keyed apart by kind. Both carry the epoch's ETag and cache with
// the epoch.
func resolveMeshPair(kind string) resolver {
	return func(v *epochList, r *http.Request) (q request, err error) {
		if q.a, q.b, err = pathASPair(r); err != nil {
			return q, err
		}
		if q.e, err = meshEpochIn(v, r); err != nil {
			return q, err
		}
		var ok bool
		if q.pair, ok = q.e.MeshDoc.PairAt(q.a, q.b); !ok {
			return q, notFound("no mesh measurement for AS pair %d/%d in epoch %d", q.a, q.b, q.e.ID)
		}
		q.cache, q.key, q.etag = q.e.cache, meshPairKey(kind, q.a, q.b), q.e.ETag
		return q, nil
	}
}

type meshPathResponse struct {
	Epoch    int          `json:"epoch"`
	At       simtime.Time `json:"at_hours"`
	A        uint32       `json:"a"`
	B        uint32       `json:"b"`
	Path     []uint32     `json:"path,omitempty"`
	Complete bool         `json:"complete"`
	// Confidence is the pair's coverage score (see core.MeshPairDocument).
	Confidence float64 `json:"confidence"`
}

func renderMeshPath(q request) ([]byte, string, error) {
	p := q.pair
	return jsonBody(meshPathResponse{
		Epoch: q.e.ID, At: q.e.At, A: p.Lo, B: p.Hi,
		Path: p.Path, Complete: p.Complete, Confidence: p.Confidence,
	})
}

type meshLatencyResponse struct {
	Epoch      int          `json:"epoch"`
	At         simtime.Time `json:"at_hours"`
	A          uint32       `json:"a"`
	B          uint32       `json:"b"`
	Probes     int          `json:"probes"`
	Lost       int          `json:"lost"`
	Loss       float64      `json:"loss"`
	MinRTTms   float64      `json:"min_rtt_ms"`
	MeanRTTms  float64      `json:"mean_rtt_ms"`
	MaxRTTms   float64      `json:"max_rtt_ms"`
	Complete   bool         `json:"complete"`
	Confidence float64      `json:"confidence"`
}

func renderMeshLatency(q request) ([]byte, string, error) {
	p := q.pair
	return jsonBody(meshLatencyResponse{
		Epoch: q.e.ID, At: q.e.At, A: p.Lo, B: p.Hi,
		Probes: p.Probes, Lost: p.Lost, Loss: p.LossRate(),
		MinRTTms: p.MinRTT, MeanRTTms: p.MeanRTT, MaxRTTms: p.MaxRTT,
		Complete: p.Complete, Confidence: p.Confidence,
	})
}

func resolveMeshTop(v *epochList, r *http.Request) (q request, err error) {
	if q.e, err = meshEpochIn(v, r); err != nil {
		return q, err
	}
	if q.k, err = intParam(r, "k", defaultTopK); err != nil {
		return q, err
	}
	q.cache, q.key, q.etag = q.e.cache, meshTopKey(q.k, len(q.e.meshWorst)), q.e.ETag
	return q, nil
}

type meshTopResponse struct {
	Epoch int        `json:"epoch"`
	Top   []MeshRank `json:"top"`
}

func renderMeshTop(q request) ([]byte, string, error) {
	return jsonBody(meshTopResponse{Epoch: q.e.ID, Top: q.e.WorstMeshPairs(q.k)})
}
