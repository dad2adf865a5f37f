package mapstore_test

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"itmap/internal/core"
	"itmap/internal/mapstore"
	"itmap/internal/randx"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/traffic"
	"itmap/internal/world"
)

// countingSource is a mapstore.LinkSource that builds its matrix on the first ask,
// once, as experiments.Env does, and counts asks and builds.
type countingSource struct {
	build func() *traffic.Matrix
	asks  atomic.Int64

	mu sync.Mutex
	//itm:guardedby mu
	builds int
	//itm:guardedby mu
	mx *traffic.Matrix
}

func (c *countingSource) Matrix() *traffic.Matrix {
	c.asks.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mx == nil {
		c.builds++
		c.mx = c.build()
	}
	return c.mx
}

// TestModelLinkSourceAskedOnDemand: a store handed a matrix source asks it
// for the matrix only when a link-load query needs one — not at append, not
// on any other route — and concurrent link queries over three epochs that
// share the source build it once and answer its loads. A typed-nil matrix
// is no matrix: the link route answers 404.
func TestModelLinkSourceAskedOnDemand(t *testing.T) {
	w := world.Build(world.Tiny(7))
	src := &countingSource{build: w.Traffic.BuildMatrix}
	s := mapstore.NewStore()
	rng := randx.New(19)
	doc, mesh := baseDoc(), baseMesh()
	for d := 0; d < 3; d++ {
		if d > 0 {
			doc, mesh = nextDoc(doc, rng), nextMesh(mesh, rng)
		}
		tm := &core.TrafficMap{MapDocument: *doc, Top: w.Top}
		if _, err := s.AppendMapMesh(simtime.Time(d)*simtime.Day, tm, src, mesh); err != nil {
			t.Fatal(err)
		}
		doc = tm.Document()
	}
	if n := src.asks.Load(); n != 0 {
		t.Fatalf("three appends asked the source %d times, want 0", n)
	}

	h := mapstore.NewHandler(s)
	for _, target := range []string{"/healthz", "/v1/slo", "/v1/epochs", "/v1/obs/history",
		"/v1/obs/history/itm_mapstore_epochs_total", "/v1/diff/0/2"} {
		if code := serve(h, http.MethodGet, target, "", false).Code; code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", target, code)
		}
	}
	for e := 0; e < 3; e++ {
		q := "?epoch=" + strconv.Itoa(e)
		for _, target := range []string{"/v1/map/" + strconv.Itoa(e), "/v1/map/" + strconv.Itoa(e) + "?format=binary",
			"/v1/top" + q, "/v1/as/3000" + q, "/v1/path/700/3000" + q, "/v1/latency/700/3000" + q, "/v1/latency/top" + q} {
			if code := serve(h, http.MethodGet, target, "", false).Code; code != http.StatusOK {
				t.Errorf("GET %s = %d, want 200", target, code)
			}
		}
	}
	if n := src.asks.Load(); n != 0 {
		t.Fatalf("the non-link routes asked the source %d times, want 0", n)
	}

	// Sixteen concurrent link queries, spread over the epochs and eight
	// real links, each asked in the order opposite the link key's.
	li := w.Top.LinkIndex()
	const queries = 16
	type reply struct {
		code int
		body []byte
	}
	got := make([]reply, queries)
	keys := make([]topology.LinkKey, queries)
	var wg sync.WaitGroup
	for g := range queries {
		keys[g] = li.Key(int32(g % 8 * (li.NumLinks() / 8)))
		target := "/v1/link/" + strconv.Itoa(int(keys[g].Hi)) + "/" + strconv.Itoa(int(keys[g].Lo)) +
			"?epoch=" + strconv.Itoa(g%3)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := serve(h, http.MethodGet, target, "", false)
			got[g] = reply{rec.Code, rec.Body.Bytes()}
		}()
	}
	wg.Wait()
	src.mu.Lock()
	builds, mx := src.builds, src.mx
	src.mu.Unlock()
	if builds != 1 {
		t.Fatalf("%d concurrent link queries built the matrix %d times, want 1", queries, builds)
	}
	loaded := 0
	for g, a := range got {
		var body struct {
			Epoch      int     `json:"epoch"`
			DailyBytes float64 `json:"daily_bytes"`
		}
		if a.code != http.StatusOK {
			t.Errorf("link %v in epoch %d = %d, want 200", keys[g], g%3, a.code)
			continue
		}
		if err := json.Unmarshal(a.body, &body); err != nil {
			t.Fatal(err)
		}
		ia, _ := w.Top.Index(keys[g].Lo)
		ib, _ := w.Top.Index(keys[g].Hi)
		if want := mx.LinkLoadDense[li.IDBetween(ia, ib)]; body.Epoch != g%3 || body.DailyBytes != want {
			t.Errorf("link %v in epoch %d answered %+v, want daily_bytes %v", keys[g], g%3, body, want)
		}
		if body.DailyBytes > 0 {
			loaded++
		}
	}
	if loaded == 0 {
		t.Error("every sampled link answered 0 bytes: the check compares nothing")
	}

	// A typed-nil matrix is its own source of no matrix.
	s = mapstore.NewStore()
	if _, err := s.AppendMap(0, &core.TrafficMap{MapDocument: *baseDoc(), Top: w.Top}, (*traffic.Matrix)(nil)); err != nil {
		t.Fatal(err)
	}
	target := "/v1/link/" + strconv.Itoa(int(keys[0].Hi)) + "/" + strconv.Itoa(int(keys[0].Lo))
	if code := serve(mapstore.NewHandler(s), http.MethodGet, target, "", false).Code; code != http.StatusNotFound {
		t.Errorf("GET %s with a typed-nil matrix = %d, want 404", target, code)
	}
}
