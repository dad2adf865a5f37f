package mapstore

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"itmap/internal/obs"
	"itmap/internal/obs/history"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, body
}

func getJSON(t *testing.T, srv *httptest.Server, path string, into any) {
	t.Helper()
	code, body := get(t, srv, path)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, code, body)
	}
	if err := json.Unmarshal(body, into); err != nil {
		t.Fatalf("GET %s: %v in %s", path, err, body)
	}
}

func TestServerEndpoints(t *testing.T) {
	srv := httptest.NewServer(NewHandler(storeWith(t, 3)))
	defer srv.Close()

	var health struct {
		Status string `json:"status"`
		Epochs int    `json:"epochs"`
	}
	getJSON(t, srv, "/healthz", &health)
	if health.Status != "ok" || health.Epochs != 3 {
		t.Errorf("healthz %+v", health)
	}

	var epochs struct {
		Epochs []Info `json:"epochs"`
	}
	getJSON(t, srv, "/v1/epochs", &epochs)
	if len(epochs.Epochs) != 3 || epochs.Epochs[2].ID != 2 {
		t.Errorf("epochs %+v", epochs)
	}

	var top struct {
		Epoch int      `json:"epoch"`
		Top   []ASRank `json:"top"`
	}
	getJSON(t, srv, "/v1/top?k=2", &top)
	if top.Epoch != 2 || len(top.Top) != 2 || top.Top[0].ASN != 64500 {
		t.Errorf("top %+v", top)
	}
	getJSON(t, srv, "/v1/top?epoch=0&k=1", &top)
	if top.Epoch != 0 || len(top.Top) != 1 {
		t.Errorf("top@0 %+v", top)
	}

	var view struct {
		ASView
		Series []EpochValue `json:"series"`
	}
	getJSON(t, srv, "/v1/as/64500?k=1", &view)
	if view.ASN != 64500 || view.TotalServices != 2 || len(view.Services) != 1 {
		t.Errorf("as view %+v", view)
	}
	if len(view.Series) != 3 || view.Series[2].Activity != 143.5 {
		t.Errorf("as series %+v", view.Series)
	}

	var diff DiffDocument
	getJSON(t, srv, "/v1/diff/0/2?min_shift=0.001", &diff)
	if diff.EpochA != 0 || diff.EpochB != 2 || len(diff.Appeared) != 2 {
		t.Errorf("diff %+v", diff)
	}
}

func TestServerMapFormats(t *testing.T) {
	s := storeWith(t, 1)
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	var doc struct {
		ActivePrefixes []string `json:"active_prefixes"`
	}
	getJSON(t, srv, "/v1/map/0", &doc)
	if len(doc.ActivePrefixes) != 3 {
		t.Errorf("map doc %+v", doc)
	}

	code, bin := get(t, srv, "/v1/map/0?format=binary")
	if code != http.StatusOK {
		t.Fatalf("binary status %d", code)
	}
	if !bytes.Equal(bin, s.Latest().Encoded) {
		t.Error("binary body differs from the epoch's encoding")
	}
	if _, err := DecodeDocument(bin); err != nil {
		t.Errorf("binary body does not decode: %v", err)
	}

	// Responses are deterministic: the same query twice yields the same
	// bytes (the smoke test in CI relies on this).
	_, a := get(t, srv, "/v1/map/0")
	_, b := get(t, srv, "/v1/map/0")
	if !bytes.Equal(a, b) {
		t.Error("JSON map response not deterministic")
	}
}

func TestServerErrors(t *testing.T) {
	srv := httptest.NewServer(NewHandler(storeWith(t, 1)))
	defer srv.Close()

	for path, want := range map[string]int{
		"/v1/map/9":              http.StatusNotFound,
		"/v1/map/x":              http.StatusBadRequest,
		"/v1/map/0?format=xml":   http.StatusBadRequest,
		"/v1/as/4242":            http.StatusNotFound,
		"/v1/as/zzz":             http.StatusBadRequest,
		"/v1/as/64500?k=x":       http.StatusBadRequest,
		"/v1/as/64500?epoch=9":   http.StatusNotFound,
		"/v1/top?epoch=nine":     http.StatusNotFound,
		"/v1/diff/0/9":           http.StatusNotFound,
		"/v1/diff/a/b":           http.StatusBadRequest,
		"/v1/diff/0/0?min_shift": http.StatusOK,
		"/v1/nope":               http.StatusNotFound,
	} {
		code, body := get(t, srv, path)
		if code != want {
			t.Errorf("GET %s: status %d, want %d (%s)", path, code, want, body)
		}
		if code != http.StatusOK && path != "/v1/nope" {
			var e errorBody
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("GET %s: error body %q not structured", path, body)
			}
		}
	}
}

func TestServerEmptyStore(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewStore()))
	defer srv.Close()
	code, _ := get(t, srv, "/healthz")
	if code != http.StatusOK {
		t.Errorf("healthz on empty store: %d", code)
	}
	code, _ = get(t, srv, "/v1/top")
	if code != http.StatusNotFound {
		t.Errorf("top on empty store: %d", code)
	}
}

// TestServerWrongMethodIs405 locks the routing contract: a wrong-method hit
// on a registered route is 405 Method Not Allowed (with Allow set), never a
// 404 — clients distinguish "no such resource" from "wrong verb".
func TestServerWrongMethodIs405(t *testing.T) {
	srv := httptest.NewServer(NewHandler(storeWith(t, 1)))
	defer srv.Close()
	for _, path := range []string{"/healthz", "/v1/epochs", "/v1/top", "/v1/map/0", "/v1/as/3000", "/v1/diff/0/0"} {
		resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(nil))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != "GET, HEAD" {
			t.Errorf("POST %s: Allow = %q, want \"GET, HEAD\"", path, allow)
		}
	}
	// An unregistered path stays a plain 404.
	resp, err := srv.Client().Post(srv.URL+"/v1/nope", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/nope: status %d, want 404", resp.StatusCode)
	}
}

// TestHandlerInstrumentation checks every route reports into the metrics
// registry under its pattern label.
func TestHandlerInstrumentation(t *testing.T) {
	prev := obs.Swap(obs.NewSet())
	defer obs.Swap(prev)
	srv := httptest.NewServer(NewHandler(storeWith(t, 1)))
	defer srv.Close()
	get(t, srv, "/healthz")
	get(t, srv, "/v1/top?k=1")
	get(t, srv, "/v1/top?epoch=99") // 404 → 4xx class
	for _, key := range []string{
		`itm_http_requests_total{class="2xx",route="GET /v1/top"}`,
		`itm_http_requests_total{class="4xx",route="GET /v1/top"}`,
		`itm_http_requests_total{class="2xx",route="GET /healthz"}`,
	} {
		if got := seriesValue(obs.Metrics(), key); got != 1 {
			t.Errorf("%s = %v, want 1", key, got)
		}
	}
}

// seriesValue reads one series, keyed as history.SeriesKey renders it, from
// reg; a series never created reads 0.
func seriesValue(reg *obs.Registry, key string) float64 {
	for _, kv := range history.Flatten(reg) {
		if kv.Key == key {
			return kv.Value
		}
	}
	return 0
}
