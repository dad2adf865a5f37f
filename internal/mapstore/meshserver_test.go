package mapstore

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"itmap/internal/simtime"
)

// meshStoreWith is storeWith plus the sample mesh attached to every epoch.
func meshStoreWith(t *testing.T, days int) *Store {
	t.Helper()
	s := NewStore()
	for d := 0; d < days; d++ {
		if _, err := s.append(simtime.Time(d)*simtime.Day, ingest{doc: docAt(d), mesh: sampleMesh()}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// meshGet wraps getFull (cache_test.go) and drains the body.
func meshGet(t *testing.T, srv *httptest.Server, path, inm string) (*http.Response, []byte) {
	t.Helper()
	resp := getFull(t, srv, path, inm)
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp, body
}

func TestMeshRoutes(t *testing.T) {
	srv := httptest.NewServer(NewHandler(meshStoreWith(t, 2)))
	defer srv.Close()

	var path meshPathResponse
	getJSON(t, srv, "/v1/path/3000/3001", &path)
	if path.Epoch != 1 || path.A != 3000 || path.B != 3001 || !path.Complete {
		t.Errorf("path %+v", path)
	}
	if len(path.Path) != 3 || path.Path[1] != 10 {
		t.Errorf("path hops %v", path.Path)
	}
	// The pair is canonical: querying in reverse order answers identically.
	_, fwd := get(t, srv, "/v1/path/3000/3001")
	_, rev := get(t, srv, "/v1/path/3001/3000")
	if !bytes.Equal(fwd, rev) {
		t.Error("pair lookup not symmetric")
	}

	var lat meshLatencyResponse
	getJSON(t, srv, "/v1/latency/3000/3005?epoch=0", &lat)
	if lat.Epoch != 0 || lat.Probes != 4 || lat.Lost != 2 || lat.Loss != 0.5 {
		t.Errorf("latency %+v", lat)
	}
	if lat.MinRTTms != 40 || lat.Complete {
		t.Errorf("latency summary %+v", lat)
	}

	var top meshTopResponse
	getJSON(t, srv, "/v1/latency/top?k=10", &top)
	// sampleMesh: pair (3000,3005) mean 41 > (3000,3001) mean 14.25; the
	// all-lost pair (3002,3007) is unrankable.
	if len(top.Top) != 2 || top.Top[0].A != 3000 || top.Top[0].B != 3005 {
		t.Errorf("latency top %+v", top.Top)
	}
	if top.Top[0].MeanRTTms < top.Top[1].MeanRTTms {
		t.Errorf("top not worst-first: %+v", top.Top)
	}
}

func TestMeshRouteErrors(t *testing.T) {
	srv := httptest.NewServer(NewHandler(meshStoreWith(t, 1)))
	defer srv.Close()
	for path, want := range map[string]int{
		"/v1/path/1/2":               http.StatusNotFound, // unknown ASN pair
		"/v1/path/3000/9999":         http.StatusNotFound,
		"/v1/path/x/3001":            http.StatusBadRequest,
		"/v1/path/3000/3001?epoch=9": http.StatusNotFound,
		"/v1/latency/1/2":            http.StatusNotFound,
		"/v1/latency/zzz/3001":       http.StatusBadRequest,
		"/v1/latency/top?k=x":        http.StatusBadRequest,
		"/v1/latency/top?epoch=9":    http.StatusNotFound,
	} {
		code, body := get(t, srv, path)
		if code != want {
			t.Errorf("GET %s: status %d, want %d (%s)", path, code, want, body)
		}
		var e errorBody
		if code != http.StatusOK {
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("GET %s: error body %q not structured", path, body)
			}
		}
	}

	// A store without mesh sections 404s all three routes.
	plain := httptest.NewServer(NewHandler(storeWith(t, 1)))
	defer plain.Close()
	for _, path := range []string{"/v1/path/3000/3001", "/v1/latency/3000/3001", "/v1/latency/top"} {
		if code, _ := get(t, plain, path); code != http.StatusNotFound {
			t.Errorf("GET %s on meshless store: status %d, want 404", path, code)
		}
	}
}

func TestMeshRoutesWrongMethodIs405(t *testing.T) {
	srv := httptest.NewServer(NewHandler(meshStoreWith(t, 1)))
	defer srv.Close()
	for _, path := range []string{"/v1/path/3000/3001", "/v1/latency/3000/3001", "/v1/latency/top"} {
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
}

// TestMeshRoutesCaching mirrors the PR 6 handler suite for the mesh routes:
// miss → hit with byte-equal bodies, the epoch's strong ETag, If-None-Match →
// 304, and stable negative lookups.
func TestMeshRoutesCaching(t *testing.T) {
	s := meshStoreWith(t, 1)
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	// top uses a non-default k: the default-k ranking is prebaked at append
	// time, so its first request is already a hit (checked below).
	for _, path := range []string{"/v1/path/3000/3001", "/v1/latency/3000/3001", "/v1/latency/top?k=1"} {
		first, a := meshGet(t, srv, path, "")
		second, b := meshGet(t, srv, path, "")
		if first.Header.Get("X-Cache") != "miss" || second.Header.Get("X-Cache") != "hit" {
			t.Errorf("%s: X-Cache %q then %q, want miss then hit", path,
				first.Header.Get("X-Cache"), second.Header.Get("X-Cache"))
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: cached body differs from streamed body", path)
		}
		etag := first.Header.Get("ETag")
		if etag == "" || etag != s.Latest().ETag {
			t.Errorf("%s: ETag %q, want the epoch's ETag %q", path, etag, s.Latest().ETag)
		}
		cond, _ := meshGet(t, srv, path, etag)
		if cond.StatusCode != http.StatusNotModified {
			t.Errorf("%s: conditional status %d, want 304", path, cond.StatusCode)
		}
		if cond.Header.Get("ETag") != etag {
			t.Errorf("%s: 304 lost the ETag", path)
		}
	}
	// The default-k worst-pairs ranking was prebaked by the append, so even
	// the very first request hits cached bytes.
	if baked, _ := meshGet(t, srv, "/v1/latency/top", ""); baked.Header.Get("X-Cache") != "hit" {
		t.Errorf("/v1/latency/top first request X-Cache %q, want prebaked hit", baked.Header.Get("X-Cache"))
	}
	// Negative pair lookups are stable: same 404, twice.
	n1, b1 := meshGet(t, srv, "/v1/path/3000/9999", "")
	n2, b2 := meshGet(t, srv, "/v1/path/3000/9999", "")
	if n1.StatusCode != http.StatusNotFound || n2.StatusCode != http.StatusNotFound || !bytes.Equal(b1, b2) {
		t.Error("negative pair lookup not stable")
	}
}

// TestMeshStructuralSharing: an identical mesh shares the previous epoch's
// document and ranking, while each epoch keeps its own ETag — the mesh
// bodies name their epoch.
func TestMeshStructuralSharing(t *testing.T) {
	s := meshStoreWith(t, 3)
	es := s.Snapshot()
	for _, e := range es[1:] {
		if e.MeshDoc != es[0].MeshDoc || &e.meshWorst[0] != &es[0].meshWorst[0] {
			t.Errorf("epoch %d: identical mesh document or ranking not shared", e.ID)
		}
		if e.ETag == es[0].ETag {
			t.Errorf("epoch %d: shares epoch 0's ETag %s", e.ID, e.ETag)
		}
	}
	if got := es[0].Info().MeshPairs; got != 3 {
		t.Errorf("Info.MeshPairs = %d, want 3", got)
	}
	// A changed mesh breaks sharing.
	mesh := sampleMesh()
	mesh.Pairs[0].Probes++
	e, err := s.append(simtime.Time(3)*simtime.Day, ingest{doc: docAt(3), mesh: mesh})
	if err != nil {
		t.Fatal(err)
	}
	if e.MeshDoc == es[0].MeshDoc {
		t.Error("changed mesh still shared")
	}
	// Round trip through the codec: the record's mesh span decodes back to
	// the stored document.
	dec, err := DecodeMeshDocument(e.off.span(e.record, wireMesh))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Pairs) != len(e.MeshDoc.Pairs) {
		t.Errorf("encoded mesh lost pairs: %d vs %d", len(dec.Pairs), len(e.MeshDoc.Pairs))
	}
}
