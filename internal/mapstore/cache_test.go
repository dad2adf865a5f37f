package mapstore

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"itmap/internal/obs"
	"itmap/internal/simtime"
)

// getFull issues a GET with optional If-None-Match and returns the whole
// response (the plain get helper discards headers).
func getFull(t *testing.T, srv *httptest.Server, path, inm string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	t.Cleanup(func() { _ = resp.Body.Close() })
	return resp
}

func TestETagMatch(t *testing.T) {
	for _, tc := range []struct {
		header, etag string
		want         bool
	}{
		{"", `"a"`, false},
		{`"a"`, `"a"`, true},
		{`"b"`, `"a"`, false},
		{"*", `"a"`, true},
		{`"x", "a"`, `"a"`, true},
		{` "a" `, `"a"`, true},
		{`W/"a"`, `"a"`, false},
	} {
		if got := etagMatch(tc.header, tc.etag); got != tc.want {
			t.Errorf("etagMatch(%q, %q) = %v, want %v", tc.header, tc.etag, got, tc.want)
		}
	}
}

// TestBinaryHeadersAndByteIdentity pins the zero-copy contract on
// /v1/map/{epoch}?format=binary: explicit Content-Length, no-transform,
// a strong ETag, and a body byte-identical to the codec's output.
func TestBinaryHeadersAndByteIdentity(t *testing.T) {
	s := storeWith(t, 1)
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	resp := getFull(t, srv, "/v1/map/0?format=binary", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeDocument(s.Latest().Doc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Error("binary body differs from EncodeDocument output")
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(want)) {
		t.Errorf("Content-Length = %q, want %d", got, len(want))
	}
	if got := resp.Header.Get("Cache-Control"); got != "no-transform" {
		t.Errorf("Cache-Control = %q, want no-transform", got)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/octet-stream" {
		t.Errorf("Content-Type = %q", got)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" || etag != s.Latest().ETag {
		t.Errorf("ETag = %q, want the epoch's %q", etag, s.Latest().ETag)
	}

	// Revalidation: If-None-Match on the strong tag answers 304, no body.
	resp304 := getFull(t, srv, "/v1/map/0?format=binary", etag)
	if resp304.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidate status %d, want 304", resp304.StatusCode)
	}
	if b, _ := io.ReadAll(resp304.Body); len(b) != 0 {
		t.Errorf("304 carried %d body bytes", len(b))
	}
	if got := resp304.Header.Get("ETag"); got != etag {
		t.Errorf("304 ETag = %q, want %q", got, etag)
	}
}

// TestETagSemantics covers the conditional-request lifecycle: 304 on
// match, a full body under a new tag once an append bumps the store
// generation, stable per-epoch tags across appends — and no 304 at all for
// a URL that has no representation.
func TestETagSemantics(t *testing.T) {
	s := storeWith(t, 2)
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	// Store-scoped route: the epoch listing revalidates against the store
	// generation.
	resp := getFull(t, srv, "/v1/epochs", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	listTag := resp.Header.Get("ETag")
	if listTag == "" {
		t.Fatal("no ETag on /v1/epochs")
	}
	body1, _ := io.ReadAll(resp.Body)
	if resp := getFull(t, srv, "/v1/epochs", listTag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("matching If-None-Match: status %d, want 304", resp.StatusCode)
	}

	// Epoch-scoped route: tag from the epoch's canonical encoding.
	mapTag := getFull(t, srv, "/v1/map/0", "").Header.Get("ETag")
	if mapTag == "" || mapTag == listTag {
		t.Fatalf("map ETag %q should be set and distinct from store tag %q", mapTag, listTag)
	}

	// Append a new epoch: the generation bumps.
	if _, err := s.Append(2*simtime.Day, docAt(2)); err != nil {
		t.Fatal(err)
	}

	// The stale store tag no longer matches: full body, new tag, new
	// content.
	resp = getFull(t, srv, "/v1/epochs", listTag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after append: status %d, want 200", resp.StatusCode)
	}
	newTag := resp.Header.Get("ETag")
	if newTag == listTag {
		t.Error("store ETag did not change after append")
	}
	body2, _ := io.ReadAll(resp.Body)
	if bytes.Equal(body1, body2) {
		t.Error("epoch listing unchanged after append")
	}

	// Epoch 0 is immutable: its tag (and 304 behavior) survives appends.
	resp = getFull(t, srv, "/v1/map/0", mapTag)
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("epoch-scoped revalidation after append: status %d, want 304", resp.StatusCode)
	}

	// "*" or a listed tag matches only a URL that currently has a
	// representation (RFC 9110 §13.1.2): where the unconditional request is
	// a 404, so is every conditional one — even under the tag another URL of
	// the same scope carries.
	asTag := getFull(t, srv, "/v1/as/64500", "").Header.Get("ETag")
	for _, c := range []struct{ path, inm string }{
		{"/v1/as/4294967295", "*"},
		{"/v1/link/1/2", "*"},
		{"/v1/obs/history/itm_nope", "*"},
		{"/v1/as/4294967295", asTag},
	} {
		if resp := getFull(t, srv, c.path, c.inm); resp.StatusCode != http.StatusNotFound || resp.Header.Get("ETag") != "" {
			t.Errorf("GET %s, If-None-Match %s: status %d, ETag %q; want a 404 without one", c.path, c.inm, resp.StatusCode, resp.Header.Get("ETag"))
		}
	}
}

// TestCacheCounters pins the deterministic ledger for a known request
// sequence: first touch is a miss + fill, repeats are hits, revalidations
// are 304s, and every body byte is accounted.
func TestCacheCounters(t *testing.T) {
	prev := obs.Swap(obs.NewSet())
	defer obs.Swap(prev)
	s := storeWith(t, 1)
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	counter := func(f *obs.CounterFamily, route string) uint64 { return f.With(route).Value() }

	resp := getFull(t, srv, "/v1/map/0", "")
	body, _ := io.ReadAll(resp.Body)
	getFull(t, srv, "/v1/map/0", "")
	getFull(t, srv, "/v1/map/0", resp.Header.Get("ETag"))

	if got := counter(cacheMisses, "/v1/map/{epoch}"); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := counter(cacheFills, "/v1/map/{epoch}"); got != 1 {
		t.Errorf("fills = %d, want 1", got)
	}
	if got := counter(cacheHits, "/v1/map/{epoch}"); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := counter(cacheNotModified, "/v1/map/{epoch}"); got != 1 {
		t.Errorf("304s = %d, want 1", got)
	}
	if got := counter(cacheBytesServed, "/v1/map/{epoch}"); got != uint64(2*len(body)) {
		t.Errorf("bytes = %d, want %d", got, 2*len(body))
	}
	// The 304 above hit a filled entry and rendered nothing: fills stayed 1.
	// A URL with no representation 404s before the cache is asked at all.
	getFull(t, srv, "/v1/as/4242", "")
	getFull(t, srv, "/v1/as/4242", "")
	if h, m := counter(cacheHits, "/v1/as/{asn}"), counter(cacheMisses, "/v1/as/{asn}"); h+m != 0 {
		t.Errorf("two 404s ticked %d hits and %d misses, want none", h, m)
	}

	// X-Cache mirrors the ledger for clients.
	if x := resp.Header.Get("X-Cache"); x != "miss" {
		t.Errorf("first X-Cache = %q, want miss", x)
	}
	if x := getFull(t, srv, "/v1/map/0", "").Header.Get("X-Cache"); x != "hit" {
		t.Errorf("repeat X-Cache = %q, want hit", x)
	}
}

// TestPrebakedResponses: the default top-K and the adjacent diff are baked
// at append time, so their very first request is already a cache hit.
func TestPrebakedResponses(t *testing.T) {
	s := storeWith(t, 2)
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	if x := getFull(t, srv, "/v1/top", "").Header.Get("X-Cache"); x != "hit" {
		t.Errorf("first /v1/top X-Cache = %q, want hit (prebaked)", x)
	}
	if x := getFull(t, srv, "/v1/top?k=10", "").Header.Get("X-Cache"); x != "hit" {
		t.Errorf("first /v1/top?k=10 X-Cache = %q, want hit (same shape as prebake)", x)
	}
	if x := getFull(t, srv, "/v1/diff/0/1", "").Header.Get("X-Cache"); x != "hit" {
		t.Errorf("first adjacent diff X-Cache = %q, want hit (prebaked)", x)
	}
	// A non-default shape still misses, then hits.
	if x := getFull(t, srv, "/v1/top?k=1", "").Header.Get("X-Cache"); x != "miss" {
		t.Errorf("first /v1/top?k=1 X-Cache = %q, want miss", x)
	}
	if x := getFull(t, srv, "/v1/top?k=1", "").Header.Get("X-Cache"); x != "hit" {
		t.Errorf("second /v1/top?k=1 X-Cache = %q, want hit", x)
	}
}

// TestSingleFlightFill hammers one cold key concurrently and asserts the
// body rendered exactly once.
func TestSingleFlightFill(t *testing.T) {
	prev := obs.Swap(obs.NewSet())
	defer obs.Swap(prev)
	s := storeWith(t, 1)
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	const n = 16
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := srv.Client().Get(srv.URL + "/v1/map/0")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	if got := cacheFills.With("/v1/map/{epoch}").Value(); got != 1 {
		t.Errorf("fills = %d, want 1 (single flight)", got)
	}
}

// TestCacheMetricFamiliesDeclared freezes the itm_cache_* families in the
// stable exposition: NewStore declares every family up front, so a
// campaign's metrics dump carries their HELP/TYPE headers (and the prebake
// series) even before any serving-time traffic.
func TestCacheMetricFamiliesDeclared(t *testing.T) {
	prevSet := obs.Swap(obs.NewSet())
	defer obs.Swap(prevSet)
	s := storeWith(t, 2)
	_ = s
	dump := obs.Metrics().StableExposition()
	for _, family := range []string{
		"itm_cache_hits_total",
		"itm_cache_misses_total",
		"itm_cache_fills_total",
		"itm_cache_not_modified_total",
		"itm_cache_bypass_total",
		"itm_cache_bytes_served_total",
		"itm_cache_prebaked_total",
	} {
		if !strings.Contains(dump, "# TYPE "+family+" counter") {
			t.Errorf("stable exposition missing family %s", family)
		}
	}
	// Two epochs bake the default top-K twice plus one adjacent diff.
	if !strings.Contains(dump, "itm_cache_prebaked_total 3") {
		t.Errorf("prebake series wrong; dump:\n%s", dump)
	}
}

// TestCachedJSONMatchesStreaming pins the byte-identity between the cached
// render (json.MarshalIndent) and the streaming writeJSON path the error
// responses still use — the serve smoke greps exact values from these
// bodies.
func TestCachedJSONMatchesStreaming(t *testing.T) {
	s := storeWith(t, 1)
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	_, body := get(t, srv, "/v1/top?k=2")
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, topResponse{Epoch: 0, Top: s.Latest().TopASes(2)})
	if !bytes.Equal(body, rec.Body.Bytes()) {
		t.Errorf("cached body differs from streaming writeJSON:\n%s\nvs\n%s", body, rec.Body.Bytes())
	}
}
