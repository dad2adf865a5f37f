package mapstore

// The route oracle. The serving layer as it stood before the routes became
// a table (commit d88ae89) is kept at the bottom of this file — every cached
// handler with its own hand-written preamble, the helpers they parsed with,
// and the seven-argument serveCached / serveBinary pair, verbatim but for a
// ref prefix (and one adapted call, marked) — as the reference the table-driven handler must agree with on
// every header and byte. A seeded generator drives both in lock-step.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"itmap/internal/core"
	"itmap/internal/obs"
	"itmap/internal/obs/history"
	"itmap/internal/obs/slo"
	"itmap/internal/randx"
	"itmap/internal/simtime"
)

// oracleSide is one side of the comparison: a store, the handler over it,
// and the observability world (registry and history ring) the store was
// built in and its requests are served in. Requests go through
// ServeHTTP on a recorder, one at a time, so swapping the process-wide
// defaults around each call keeps the two sides' counters apart.
type oracleSide struct {
	set  *obs.Set
	ring *history.Ring
	s    *Store
	h    http.Handler
	days int
}

func (o *oracleSide) in(f func()) {
	prevSet, prevRing := obs.Swap(o.set), history.Swap(o.ring)
	defer func() { obs.Swap(prevSet); history.Swap(prevRing) }()
	f()
}

// oracleKinds are the stores both sides are built as. meshAt gives the mesh
// day d is ingested with: nil throughout for a map-only store; for the mesh
// store fresh, identical (shared), absent, then changed and identical again.
var oracleKinds = []struct {
	name   string
	days   int
	meshAt func(day int) *core.MeshDocument
}{
	{"empty store", 0, func(int) *core.MeshDocument { return nil }},
	{"map-only store", 3, func(int) *core.MeshDocument { return nil }},
	{"mesh store", 4, func(day int) *core.MeshDocument {
		mesh := sampleMesh()
		switch {
		case day == 2:
			return nil
		case day > 2:
			mesh.Pairs[0].Probes++
		}
		return mesh
	}},
}

func newOracleSide(t *testing.T, days int, meshAt func(int) *core.MeshDocument, handler func(*Store) http.Handler) *oracleSide {
	t.Helper()
	o := &oracleSide{set: obs.NewSet(), ring: history.NewRing(0)}
	o.in(func() {
		o.s = NewStore()
		o.h = handler(o.s)
	})
	for o.days < days {
		o.appendDay(t, meshAt)
	}
	return o
}

func (o *oracleSide) appendDay(t *testing.T, meshAt func(int) *core.MeshDocument) {
	t.Helper()
	o.in(func() {
		if _, err := o.s.append(simtime.Time(o.days)*simtime.Day, ingest{doc: docAt(o.days), mesh: meshAt(o.days)}); err != nil {
			t.Fatalf("append day %d: %v", o.days, err)
		}
	})
	o.days++
}

func (o *oracleSide) serve(method, url, inm string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, url, nil)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	rec := httptest.NewRecorder()
	o.in(func() { o.h.ServeHTTP(rec, req) })
	return rec
}

// oracleRequest draws one request: any route, each parameter independently
// valid, malformed, out of range or absent, so every order in which a
// route's checks can fail comes up.
func oracleRequest(rng *randx.Source) (method, url string) {
	pick := func(vs ...string) string { return vs[rng.Intn(len(vs))] }
	epochID := func() string { return pick("0", "1", "2", "3", "4", "5", "9", "-1", "x", "1.5") }
	asn := func() string {
		return pick("64500", "64501", "65000", "4242", "3000", "3001", "3005", "3002", "3007", "9999", "0", "x", "-1", "4294967296")
	}
	query := ""
	param := func(name string, values ...string) {
		if v := pick(values...); v != "" {
			sep := "&"
			if query == "" {
				sep = "?"
			}
			query += sep + name + "=" + v
		}
	}
	epoch := func() { param("epoch", "", "", "", "0", "1", "2", "3", "4", "9", "-1", "nine") }
	k := func() { param("k", "", "", "0", "1", "3", "10", "1000", "-2", "x") }
	var path string
	switch rng.Intn(14) {
	case 0:
		path = "/healthz"
	case 1:
		path = "/v1/epochs"
	case 2:
		path = "/v1/map/" + epochID()
		param("format", "", "", "json", "binary", "binary", "xml")
	case 3:
		path = "/v1/top"
		epoch()
		k()
	case 4:
		path = "/v1/as/" + asn()
		epoch()
		k()
	case 5:
		path = "/v1/diff/" + epochID() + "/" + epochID()
		param("min_shift", "", "", "0", "0.001", "1e-3", "0.5", "x", "NaN")
	case 6:
		path = "/v1/link/" + asn() + "/" + asn()
		epoch()
	case 7:
		path = "/v1/path/" + asn() + "/" + asn()
		epoch()
	case 8:
		path = "/v1/latency/" + asn() + "/" + asn()
		epoch()
	case 9:
		path = "/v1/latency/top"
		epoch()
		k()
	case 10:
		path = "/v1/obs/history"
	case 11:
		path = "/v1/obs/history/" + pick("itm_mapstore_epochs_total", "itm_cache_hits_total", "itm_http_requests_total", "nope")
	case 12:
		path = "/v1/slo"
	case 13:
		path = "/v1/nope"
	}
	method = http.MethodGet
	if rng.Bool(0.08) {
		method = pick(http.MethodPost, http.MethodHead, http.MethodDelete)
	}
	return method, path + query
}

// TestRouteTableMatchesHandlerOracle drives the table-driven handler and
// the hand-written handlers it replaced, in lock-step, over two stores
// built from the same inputs: 2400 seeded requests — every route; valid,
// malformed and out-of-range epoch, k, min_shift, ASNs, format; without an
// If-None-Match, with the current one, a stale one, a list and "*"; wrong
// methods — against an empty store, a map-only store and a mesh store, with
// two appends landing mid-sequence. Status, the headers that carry the
// contract and the body must be equal on every request, and the two sides'
// stable metric expositions equal at the end.
func TestRouteTableMatchesHandlerOracle(t *testing.T) {
	const perKind = 800
	for ki, kind := range oracleKinds {
		real := newOracleSide(t, kind.days, kind.meshAt, NewHandler)
		ref := newOracleSide(t, kind.days, kind.meshAt, newRefHandler)
		rng := randx.New(int64(22 + ki))
		seen := map[string]string{} // URL → the ETag it last carried
		var tags []string           // every ETag seen, for stale validators
		statuses := map[int]int{}
		var issued []string
		for i := 0; i < perKind; i++ {
			if i == perKind/3 || i == 2*perKind/3 {
				real.appendDay(t, kind.meshAt)
				ref.appendDay(t, kind.meshAt)
			}
			method, url := oracleRequest(rng)
			if len(issued) > 0 && rng.Bool(0.3) {
				// Come back to a URL already asked for — after an append too,
				// when its store-scoped answers must have been invalidated.
				url = issued[rng.Intn(len(issued))]
			}
			issued = append(issued, url)
			inm := ""
			switch r := rng.Float64(); {
			case r < 0.40:
			case r < 0.75:
				inm = seen[url]
			case r < 0.90 && len(tags) > 0:
				inm = tags[rng.Intn(len(tags))]
			case r < 0.95:
				inm = "*"
			default:
				inm = `"itm-e0-deadbeef", ` + seen[url]
			}
			got, want := real.serve(method, url, inm), ref.serve(method, url, inm)
			name := fmt.Sprintf("%s, request %d: %s %s (If-None-Match %q)", kind.name, i, method, url, inm)
			if got.Code != want.Code {
				t.Fatalf("%s: status %d, oracle %d\n table:  %.200q\n oracle: %.200q", name, got.Code, want.Code, got.Body, want.Body)
			}
			for _, h := range []string{"ETag", "X-Cache", "Content-Type", "Content-Length", "Cache-Control", "Allow"} {
				if g, w := got.Header().Values(h), want.Header().Values(h); fmt.Sprint(g) != fmt.Sprint(w) {
					t.Fatalf("%s: %s %q, oracle %q", name, h, g, w)
				}
			}
			if got.Body.String() != want.Body.String() {
				t.Fatalf("%s: bodies differ\n table:  %.200q\n oracle: %.200q", name, got.Body, want.Body)
			}
			statuses[got.Code]++
			if tag := got.Header().Get("ETag"); tag != "" && method == http.MethodGet {
				if seen[url] != tag {
					tags = append(tags, tag)
				}
				seen[url] = tag
			}
		}
		var g, w string
		real.in(func() { g = obs.Metrics().StableExposition() })
		ref.in(func() { w = obs.Metrics().StableExposition() })
		if g != w {
			t.Errorf("%s: stable exposition differs after %d requests\n--- table ---\n%s\n--- oracle ---\n%s", kind.name, perKind, g, w)
		}
		// The sequence is only worth its length if it reaches every outcome.
		for _, code := range []int{200, 304, 400, 404, 405} {
			if statuses[code] < 10 {
				t.Errorf("%s: only %d responses with status %d in %d requests: %v", kind.name, statuses[code], code, perKind, statuses)
			}
		}
	}
}

// --- the reference handlers, verbatim from d88ae89 ---------------------------

// refHandler is the old handler: it borrows the new one's state (store, SLO
// engine, history cache) and its two uncached routes, which did not change.
type refHandler struct{ *handler }

func (h *refHandler) view() *epochList { return h.s.cur.Load() }

func newRefHandler(s *Store) http.Handler {
	h := &refHandler{&handler{s: s, eng: &slo.Engine{Objectives: slo.ServingObjectives()}}}
	mux := http.NewServeMux()
	route := func(pattern string, fn http.HandlerFunc) {
		mux.Handle(pattern, obs.InstrumentHandler(pattern, fn))
	}
	route("GET /healthz", h.healthz)
	route("GET /v1/epochs", h.epochs)
	route("GET /v1/map/{epoch}", h.mapDoc)
	route("GET /v1/top", h.top)
	route("GET /v1/as/{asn}", h.asView)
	route("GET /v1/diff/{a}/{b}", h.diff)
	route("GET /v1/link/{a}/{b}", h.link)
	route("GET /v1/path/{a}/{b}", h.meshPath)
	route("GET /v1/latency/{a}/{b}", h.meshLatency)
	route("GET /v1/latency/top", h.meshLatencyTop)
	route("GET /v1/obs/history", h.obsHistory)
	route("GET /v1/obs/history/{family}", h.obsHistoryFamily)
	route("GET /v1/slo", h.slo)
	return mux
}

// refEpochIn resolves the optional ?epoch= selector (default: latest) against
// the request's snapshot.
func refEpochIn(v *epochList, r *http.Request) (*Epoch, error) {
	q := r.URL.Query().Get("epoch")
	if q == "" {
		if len(v.epochs) == 0 {
			return nil, fmt.Errorf("store has no epochs")
		}
		return v.epochs[len(v.epochs)-1], nil
	}
	id, err := strconv.Atoi(q)
	if err != nil {
		return nil, fmt.Errorf("bad epoch %q", q)
	}
	e, ok := epochAt(v.epochs, id)
	if !ok {
		return nil, fmt.Errorf("no epoch %d", id)
	}
	return e, nil
}

func refIntParam(r *http.Request, name string, def int) (int, error) {
	q := r.URL.Query().Get(name)
	if q == "" {
		return def, nil
	}
	v, err := strconv.Atoi(q)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, q)
	}
	return v, nil
}

func refPathASN(r *http.Request, name string) (uint32, error) {
	raw := r.PathValue(name)
	v, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad ASN %q", raw)
	}
	return uint32(v), nil
}

// obsHistory serves the telemetry history ring through the response cache:
// the ring's ETag is content-derived, so revalidations 304 and the body
// encodes once per generation.
func (h *refHandler) obsHistory(w http.ResponseWriter, r *http.Request) {
	snap := history.Default().Snapshot()
	c := h.historyCache(snap)
	refServeCached(w, r, "/v1/obs/history", c, "history", snap.ETag, func() ([]byte, string, error) {
		b, err := snap.MarshalBody()
		if err != nil {
			return nil, "", err
		}
		return b, "application/json", nil
	})
}

// obsHistoryFamily serves one family's values across the retained samples.
func (h *refHandler) obsHistoryFamily(w http.ResponseWriter, r *http.Request) {
	fam := r.PathValue("family")
	snap := history.Default().Snapshot()
	c := h.historyCache(snap)
	refServeCached(w, r, "/v1/obs/history/{family}", c, "history/"+fam, snap.FamilyETag(fam),
		func() ([]byte, string, error) {
			b, ok, err := snap.MarshalFamilyBody(fam)
			if err != nil {
				return nil, "", err
			}
			if !ok {
				return nil, "", &statusErr{http.StatusNotFound,
					fmt.Sprintf("no family %q in history", fam)}
			}
			return b, "application/json", nil
		})
}

func (h *refHandler) epochs(w http.ResponseWriter, r *http.Request) {
	v := h.view()
	refServeCached(w, r, "/v1/epochs", v.cache, "epochs", v.etag, func() ([]byte, string, error) {
		return jsonBody(struct {
			Epochs []Info `json:"epochs"`
		}{Epochs: infosIn(v.epochs)})
	})
}

func (h *refHandler) mapDoc(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("epoch"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad epoch %q", r.PathValue("epoch"))
		return
	}
	v := h.view()
	e, ok := epochAt(v.epochs, id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no epoch %d", id)
		return
	}
	switch f := r.URL.Query().Get("format"); f {
	case "", "json":
		refServeCached(w, r, "/v1/map/{epoch}", e.cache, "map.json", e.ETag, func() ([]byte, string, error) {
			return jsonBody(e.Doc)
		})
	case "binary":
		refServeBinary(w, r, "/v1/map/{epoch}", e)
	default:
		writeErr(w, http.StatusBadRequest, "unknown format %q", f)
	}
}

func (h *refHandler) top(w http.ResponseWriter, r *http.Request) {
	v := h.view()
	e, err := refEpochIn(v, r)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	k, err := refIntParam(r, "k", defaultTopK)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	refServeCached(w, r, "/v1/top", e.cache, topKey(k), e.ETag, func() ([]byte, string, error) {
		return jsonBody(topResponse{Epoch: e.ID, Top: e.TopASes(k)})
	})
}

func (h *refHandler) asView(w http.ResponseWriter, r *http.Request) {
	asn, err := refPathASN(r, "asn")
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	v := h.view()
	e, err := refEpochIn(v, r)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	k, err := refIntParam(r, "k", defaultTopK)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The response spans the whole store (the longitudinal series), so it
	// caches on the snapshot, keyed by the fully-resolved query shape, and
	// carries the store ETag — one append invalidates it wholesale.
	key := "as?asn=" + strconv.FormatUint(uint64(asn), 10) +
		"&epoch=" + strconv.Itoa(e.ID) + "&k=" + strconv.Itoa(k)
	refServeCached(w, r, "/v1/as/{asn}", v.cache, key, v.etag, func() ([]byte, string, error) {
		av, ok := e.ASView(asn, k)
		if !ok {
			return nil, "", &statusErr{http.StatusNotFound,
				fmt.Sprintf("AS %d not in epoch %d", asn, e.ID)}
		}
		return jsonBody(struct {
			ASView
			Series []EpochValue `json:"series"`
		}{ASView: av, Series: seriesIn(v.epochs, asn)})
	})
}

func (h *refHandler) diff(w http.ResponseWriter, r *http.Request) {
	a, errA := strconv.Atoi(r.PathValue("a"))
	b, errB := strconv.Atoi(r.PathValue("b"))
	if errA != nil || errB != nil {
		writeErr(w, http.StatusBadRequest, "bad epoch pair %q/%q", r.PathValue("a"), r.PathValue("b"))
		return
	}
	minShift := defaultMinShift
	if q := r.URL.Query().Get("min_shift"); q != "" {
		v, err := strconv.ParseFloat(q, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad min_shift %q", q)
			return
		}
		minShift = v
	}
	v := h.view()
	ea, okA := epochAt(v.epochs, a)
	if !okA {
		writeErr(w, http.StatusNotFound, "mapstore: no epoch %d", a)
		return
	}
	eb, okB := epochAt(v.epochs, b)
	if !okB {
		writeErr(w, http.StatusNotFound, "mapstore: no epoch %d", b)
		return
	}
	// A diff is pair-scoped and immutable; it caches on the newer epoch so
	// the entry ages out with the epochs themselves, never with appends.
	newer := ea
	if eb.ID > newer.ID {
		newer = eb
	}
	refServeCached(w, r, "/v1/diff/{a}/{b}", newer.cache, diffKey(a, b, minShift), pairETag(ea, eb),
		func() ([]byte, string, error) {
			return jsonBody(diffEpochs(ea, eb, minShift))
		})
}

func (h *refHandler) link(w http.ResponseWriter, r *http.Request) {
	a, errA := refPathASN(r, "a")
	b, errB := refPathASN(r, "b")
	if errA != nil || errB != nil {
		writeErr(w, http.StatusBadRequest, "bad AS pair %q/%q", r.PathValue("a"), r.PathValue("b"))
		return
	}
	v := h.view()
	e, err := refEpochIn(v, r)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	key := "link?a=" + strconv.FormatUint(uint64(a), 10) + "&b=" + strconv.FormatUint(uint64(b), 10)
	refServeCached(w, r, "/v1/link/{a}/{b}", e.cache, key, e.ETag, func() ([]byte, string, error) {
		load, ok := e.LinkLoad(a, b)
		if !ok {
			return nil, "", &statusErr{http.StatusNotFound,
				fmt.Sprintf("no link load for %d-%d in epoch %d", a, b, e.ID)}
		}
		return jsonBody(struct {
			Epoch      int     `json:"epoch"`
			A          uint32  `json:"a"`
			B          uint32  `json:"b"`
			DailyBytes float64 `json:"daily_bytes"`
		}{Epoch: e.ID, A: a, B: b, DailyBytes: load})
	})
}

// meshEpoch resolves the request's epoch and requires it to carry a mesh.
func (h *refHandler) meshEpoch(w http.ResponseWriter, r *http.Request, v *epochList) (*Epoch, bool) {
	e, err := refEpochIn(v, r)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return nil, false
	}
	if e.MeshDoc == nil {
		writeErr(w, http.StatusNotFound, "epoch %d has no mesh sections", e.ID)
		return nil, false
	}
	return e, true
}

// refMeshPairIn parses the {a}/{b} path ASNs and looks the pair up, reporting
// render-layer errors so negative results cache with the epoch.
func refMeshPairIn(e *Epoch, a, b uint32) (*core.MeshPairDocument, error) {
	p, ok := e.MeshDoc.PairAt(a, b)
	if !ok {
		return nil, &statusErr{http.StatusNotFound,
			fmt.Sprintf("no mesh measurement for AS pair %d/%d in epoch %d", a, b, e.ID)}
	}
	return p, nil
}

type refMeshPathResponse struct {
	Epoch    int          `json:"epoch"`
	At       simtime.Time `json:"at_hours"`
	A        uint32       `json:"a"`
	B        uint32       `json:"b"`
	Path     []uint32     `json:"path,omitempty"`
	Complete bool         `json:"complete"`
	// Confidence is the pair's coverage score (see core.MeshPairDocument).
	Confidence float64 `json:"confidence"`
}

func (h *refHandler) meshPath(w http.ResponseWriter, r *http.Request) {
	a, errA := refPathASN(r, "a")
	b, errB := refPathASN(r, "b")
	if errA != nil || errB != nil {
		writeErr(w, http.StatusBadRequest, "bad AS pair %q/%q", r.PathValue("a"), r.PathValue("b"))
		return
	}
	v := h.view()
	e, ok := h.meshEpoch(w, r, v)
	if !ok {
		return
	}
	refServeCached(w, r, "/v1/path/{a}/{b}", e.cache, meshPairKey("path", a, b), e.MeshETag,
		func() ([]byte, string, error) {
			p, err := refMeshPairIn(e, a, b)
			if err != nil {
				return nil, "", err
			}
			return jsonBody(refMeshPathResponse{
				Epoch: e.ID, At: e.At, A: p.Lo, B: p.Hi,
				Path: p.Path, Complete: p.Complete, Confidence: p.Confidence,
			})
		})
}

type refMeshLatencyResponse struct {
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

func (h *refHandler) meshLatency(w http.ResponseWriter, r *http.Request) {
	a, errA := refPathASN(r, "a")
	b, errB := refPathASN(r, "b")
	if errA != nil || errB != nil {
		writeErr(w, http.StatusBadRequest, "bad AS pair %q/%q", r.PathValue("a"), r.PathValue("b"))
		return
	}
	v := h.view()
	e, ok := h.meshEpoch(w, r, v)
	if !ok {
		return
	}
	refServeCached(w, r, "/v1/latency/{a}/{b}", e.cache, meshPairKey("latency", a, b), e.MeshETag,
		func() ([]byte, string, error) {
			p, err := refMeshPairIn(e, a, b)
			if err != nil {
				return nil, "", err
			}
			return jsonBody(refMeshLatencyResponse{
				Epoch: e.ID, At: e.At, A: p.Lo, B: p.Hi,
				Probes: p.Probes, Lost: p.Lost, Loss: p.LossRate(),
				MinRTTms: p.MinRTT, MeanRTTms: p.MeanRTT, MaxRTTms: p.MaxRTT,
				Complete: p.Complete, Confidence: p.Confidence,
			})
		})
}

type refMeshTopResponse struct {
	Epoch int        `json:"epoch"`
	Top   []MeshRank `json:"top"`
}

func (h *refHandler) meshLatencyTop(w http.ResponseWriter, r *http.Request) {
	v := h.view()
	e, ok := h.meshEpoch(w, r, v)
	if !ok {
		return
	}
	k, err := refIntParam(r, "k", defaultTopK)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	refServeCached(w, r, "/v1/latency/top", e.cache, meshTopKey(k), e.MeshETag,
		func() ([]byte, string, error) {
			return jsonBody(refMeshTopResponse{Epoch: e.ID, Top: e.WorstMeshPairs(k)})
		})
}

// refServeCached is the caching serve path: answer If-None-Match with 304 and
// zero body work, otherwise serve the cached bytes (single-flight filling
// them on first touch) with ETag, Content-Length, and an X-Cache header
// clients can fold into deterministic hit/miss ledgers.
func refServeCached(w http.ResponseWriter, r *http.Request, route string, c *responseCache,
	key, etag string, render func() ([]byte, string, error)) {
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.Header().Set("ETag", etag)
		cacheNotModified.With(route).Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	entry, created, ok := c.lookup(key)
	if !ok {
		body, ctype, err := render()
		if err != nil {
			writeRenderErr(w, err)
			return
		}
		cacheBypass.With(route).Inc()
		writeCachedBody(w, route, etag, ctype, "bypass", body)
		return
	}
	if created {
		cacheMisses.With(route).Inc()
	} else {
		cacheHits.With(route).Inc()
	}
	// The one line that is not verbatim: cacheEntry.fill now takes the
	// route's renderer and its resolved request; the old closure fits as a
	// renderer that ignores the request.
	entry.fill(route, func(request) ([]byte, string, error) { return render() }, request{})
	if entry.err != nil {
		writeRenderErr(w, entry.err)
		return
	}
	result := "hit"
	if created {
		result = "miss"
	}
	writeCachedBody(w, route, etag, entry.ctype, result, entry.body)
}

// refServeBinary is the zero-copy path for ?format=binary: the epoch's stored
// canonical ITMB encoding goes straight to the wire — no decode, no
// re-encode, no copy. no-transform guards the byte-identity contract
// (clients may hash the body against the codec's output).
func refServeBinary(w http.ResponseWriter, r *http.Request, route string, e *Epoch) {
	if etagMatch(r.Header.Get("If-None-Match"), e.ETag) {
		w.Header().Set("ETag", e.ETag)
		cacheNotModified.With(route).Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(e.Encoded)))
	h.Set("Cache-Control", "no-transform")
	h.Set("ETag", e.ETag)
	h.Set("X-Cache", "store")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(e.Encoded)
	cacheHits.With(route).Inc()
	cacheBytesServed.With(route).Add(uint64(len(e.Encoded)))
}
