package experiments

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"itmap/internal/loadgen"
	"itmap/internal/mapstore"
	"itmap/internal/obs"
	"itmap/internal/obs/history"
	"itmap/internal/vantage"
	"itmap/internal/world"
)

// serveDump is everything the obs v2 serving surface exposes for one
// seeded campaign: the history ring body, the SLO report, the propagated
// request trace, and the stable metrics (exemplars included).
type serveDump struct {
	historyBody string
	historyETag string
	sloBody     string
	httpTrace   string
	metrics     string
	traced      uint64
}

// runServeStack builds a mesh-enabled 3-epoch store under
// GOMAXPROCS=buildCPUs (0 leaves it as it is), replays the seeded consumer
// mix against its handler with traceparent propagation on lgWorkers
// clients, and captures the serving surfaces — all against fresh obs +
// history state.
func runServeStack(t *testing.T, seed int64, buildCPUs, lgWorkers int) serveDump {
	t.Helper()
	prevObs := obs.Swap(obs.NewSet())
	defer obs.Swap(prevObs)
	prevRing := history.Swap(history.NewRing(0))
	defer history.Swap(prevRing)

	st := mapstore.NewStore()
	w := world.Build(world.Tiny(seed))
	var err error
	withCPUs(buildCPUs, func() { err = BuildEpochStore(st, w, 3, MeshSpec{Agents: 48, Rounds: 2}) })
	if err != nil {
		t.Fatal(err)
	}
	h := mapstore.NewHandler(st)
	res, err := loadgen.Run(loadgen.Config{Seed: seed, Requests: 600, Workers: lgWorkers},
		loadgen.HandlerDoer{Handler: h})
	if err != nil {
		t.Fatal(err)
	}

	get := func(path string) (string, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
		}
		return rec.Body.String(), rec.Header().Get("ETag")
	}
	histBody, histETag := get("/v1/obs/history")
	sloBody, _ := get("/v1/slo")

	tr, ok := obs.Tracing().Lookup("http")
	if !ok {
		t.Fatal("no http trace: traceparent propagation did not reach the tracer")
	}
	spans, err := tr.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	return serveDump{
		historyBody: histBody,
		historyETag: histETag,
		sloBody:     sloBody,
		httpTrace:   string(spans),
		metrics:     obs.Metrics().StableExposition(),
		traced:      res.Traced,
	}
}

// TestServeSurfacesByteIdentical is the obs v2 determinism contract:
// /v1/obs/history bodies and ETags, /v1/slo reports, the propagated "http"
// trace, and the stable exposition (exemplars included) are byte-identical
// across runs AND across the store build's CPU count and the load
// generator's worker count.
func TestServeSurfacesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds mesh-enabled epoch stores and replays 600 requests")
	}
	d1 := runServeStack(t, 13, 1, 1)
	d2 := runServeStack(t, 13, 1, 1)
	d4 := runServeStack(t, 13, 4, 4)

	check := func(name, a, b, tag string) {
		t.Helper()
		if a != b {
			t.Errorf("%s differs %s:\n%s", name, tag, firstDiff(a, b))
		}
	}
	check("history body", d1.historyBody, d2.historyBody, "between identical runs")
	check("history ETag", d1.historyETag, d2.historyETag, "between identical runs")
	check("slo body", d1.sloBody, d2.sloBody, "between identical runs")
	check("http trace", d1.httpTrace, d2.httpTrace, "between identical runs")
	check("stable metrics", d1.metrics, d2.metrics, "between identical runs")

	check("history body", d1.historyBody, d4.historyBody, "by CPU and worker count")
	check("history ETag", d1.historyETag, d4.historyETag, "by CPU and worker count")
	check("slo body", d1.sloBody, d4.sloBody, "by CPU and worker count")
	check("http trace", d1.httpTrace, d4.httpTrace, "by CPU and worker count")
	check("stable metrics", d1.metrics, d4.metrics, "by CPU and worker count")

	if d1.traced != 600 {
		t.Errorf("traced = %d, want every planned request to carry a traceparent", d1.traced)
	}
	if !strings.Contains(d1.metrics, "trace_id=") {
		t.Error("stable exposition carries no exemplars")
	}
	if !strings.Contains(d1.sloBody, `"all_met"`) || !strings.Contains(d1.historyBody, `"samples"`) {
		t.Error("serving bodies missing expected fields")
	}
	if !strings.Contains(d1.httpTrace, "trace_id") {
		t.Error("http trace spans carry no propagated trace IDs")
	}
}

// TestHistoryFamilyRouteConsistent pins the per-family view against the
// full listing: same samples, filtered values, its own ETag, and a 404 for
// families the ring never saw.
func TestHistoryFamilyRouteConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a mesh-enabled epoch store")
	}
	prevObs := obs.Swap(obs.NewSet())
	defer obs.Swap(prevObs)
	prevRing := history.Swap(history.NewRing(0))
	defer history.Swap(prevRing)

	st := mapstore.NewStore()
	if err := BuildEpochStore(st, world.Build(world.Tiny(13)), 2,
		MeshSpec{Agents: 32, Rounds: 2}); err != nil {
		t.Fatal(err)
	}
	h := mapstore.NewHandler(st)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/obs/history/itm_mapstore_epochs_total", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("family route = %d: %s", rec.Code, rec.Body.String())
	}
	etag := rec.Header().Get("ETag")
	if !strings.HasPrefix(etag, `"itm-hf`) {
		t.Fatalf("family ETag = %q", etag)
	}
	if !strings.Contains(rec.Body.String(), `"family": "itm_mapstore_epochs_total"`) {
		t.Fatalf("family body:\n%s", rec.Body.String())
	}

	// Conditional revalidation answers 304 with no body.
	req := httptest.NewRequest(http.MethodGet, "/v1/obs/history/itm_mapstore_epochs_total", nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
		t.Fatalf("revalidation = %d, body %d bytes, want 304 empty", rec.Code, rec.Body.Len())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/obs/history/itm_never_seen_total", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown family = %d, want 404", rec.Code)
	}
}

// stableFamilies extracts the family names in a stable exposition from its
// TYPE headers, filtered to the audited prefixes.
func stableFamilies(exposition string, prefixes []string) []string {
	var out []string
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name := strings.Fields(line[len("# TYPE "):])[0]
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				out = append(out, name)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestServingFamiliesDeclaredUpFront is the exposition audit: every stable
// family the serving stack can emit under traffic must already be declared
// (HELP/TYPE present) by the declare-only construction path — NewStore plus
// the vantage campaign registration — so scrapers see the full schema
// before the first request, and a new family cannot ship undeclared. The
// server builds no ground-truth matrix, so no itm_traffic_ family is among
// them.
func TestServingFamiliesDeclaredUpFront(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a mesh campaign and a loadgen replay")
	}
	prefixes := []string{
		"itm_mapstore_", "itm_codec_", "itm_cache_", "itm_admission_",
		"itm_mesh_", "itm_http_", "itm_trace_", "itm_history_",
	}

	// Declare-only: construct the serving pieces, serve nothing.
	prevObs := obs.Swap(obs.NewSet())
	prevRing := history.Swap(history.NewRing(0))
	mapstore.NewHandler(mapstore.NewStore())
	mapstore.NewAdmission(mapstore.AdmissionConfig{})
	vantage.RegisterMetrics()
	declared := stableFamilies(obs.Metrics().StableExposition(), prefixes)
	obs.Swap(prevObs)
	history.Swap(prevRing)

	// Full traffic: mesh campaign build + loadgen replay.
	d := runServeStack(t, 17, 0, 2)
	emitted := stableFamilies(d.metrics, prefixes)

	if len(emitted) == 0 {
		t.Fatal("traffic run emitted no audited families")
	}
	if fams := stableFamilies(d.metrics, []string{"itm_traffic_"}); len(fams) != 0 {
		t.Errorf("traffic run emitted matrix families %v", fams)
	}
	have := map[string]bool{}
	for _, f := range declared {
		have[f] = true
	}
	for _, f := range emitted {
		if !have[f] {
			t.Errorf("family %s appears under traffic but is not declared at construction "+
				"time — add it to the owning package's declare path", f)
		}
	}
}
