package mapstore

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"itmap/internal/core"
	"itmap/internal/mapstore/wal"
	"itmap/internal/obs"
	"itmap/internal/simtime"
)

// driveFixedRequests replays the same deterministic request mix against a
// store's handler and captures everything identity-relevant: status, body,
// and ETag per request. Used on both sides of a crash so the comparison
// covers the full serving surface, not just raw epoch bytes. The mix wants
// at least three epochs; the mesh routes answer from whatever the store
// holds (sampleMesh's pairs when it has a mesh, 404s when not).
func driveFixedRequests(t *testing.T, s *Store) map[string]string {
	t.Helper()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	out := map[string]string{}
	paths := []string{
		"/v1/epochs",
		"/v1/map/0",
		"/v1/map/1?format=binary",
		"/v1/map/2",
		"/v1/top?k=2",
		"/v1/diff/0/2",
		"/v1/as/64500",
		"/v1/as/64500?k=1",
		"/v1/path/3000/3001",
		"/v1/path/3001/3000",
		"/v1/path/3000/9999", // never measured: a 404
		"/v1/path/3000/3001?epoch=1",
		"/v1/latency/3000/3005",
		"/v1/latency/3005/3000",
		"/v1/latency/3000/9999",
		"/v1/latency/3000/3005?epoch=2",
		"/v1/latency/top",
		"/v1/latency/top?k=3",
		"/v1/latency/top?epoch=1",
	}
	for _, p := range paths {
		resp := getFull(t, srv, p, "")
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", p, err)
		}
		out[p] = resp.Status + "|" + resp.Header.Get("ETag") + "|" + string(body)
		// Revalidate with the returned ETag: must be a 304 on both sides.
		if et := resp.Header.Get("ETag"); et != "" {
			re := getFull(t, srv, p, et)
			if re.StatusCode != http.StatusNotModified {
				t.Fatalf("GET %s with If-None-Match %s: %d, want 304", p, et, re.StatusCode)
			}
		}
	}
	return out
}

// stripWALLines removes the replay-only families from a stable exposition.
// They are the legitimate divergences across a crash: the original process
// counted journal appends where the recovered one counts replays, and
// replay decodes each journaled document where the original encoded them —
// the recovered process adopts the journaled bytes, encodes nothing, and
// must not claim it did. Everything else — mapstore, cache, admission, HTTP
// counters — must match exactly.
func stripWALLines(exposition string) string {
	var b strings.Builder
	for _, line := range strings.Split(exposition, "\n") {
		if strings.Contains(line, "itm_wal_") || strings.Contains(line, "itm_codec_decoded_bytes_total") ||
			strings.Contains(line, "itm_codec_encoded_bytes_total") {
			continue
		}
		b.WriteString(line)
		b.WriteString("\n")
	}
	return b.String()
}

// TestETagIdentityAcrossRecovery extends the PR 6 ETag-identity contract
// over a crash: a store rebuilt from the WAL (a journal with a torn tail to
// repair) serves byte-identical bodies, identical strong ETags,
// honors them with 304s, and reproduces the same stable metric exposition
// as the pre-crash process under the same request mix. The epochs carry a
// mixed mesh history — fresh, identical (shared), absent, changed — so both
// layers, and every way the mesh layer can relate to the previous epoch,
// cross the crash.
func TestETagIdentityAcrossRecovery(t *testing.T) {
	mem := wal.NewMemFS()
	changed := sampleMesh()
	changed.Pairs[0].Probes++
	meshes := []*core.MeshDocument{sampleMesh(), sampleMesh(), nil, changed}
	wantShared := []bool{false, true, false, false}

	// --- original process: journal four epochs, serve, then "crash".
	obs.Swap(obs.NewSet())
	w1, _, err := wal.Open(wal.Options{Dir: "wal", FS: mem})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s1 := NewStore()
	s1.AttachWAL(w1)
	var prevMesh *core.MeshDocument
	for d, mesh := range meshes {
		e, err := s1.append(simtime.Time(d)*simtime.Day, ingest{doc: docAt(d), mesh: mesh})
		if err != nil {
			t.Fatalf("append day %d: %v", d, err)
		}
		if shared := e.MeshDoc != nil && e.MeshDoc == prevMesh; shared != wantShared[d] || (e.MeshDoc != nil) != (mesh != nil) {
			t.Fatalf("day %d: mesh shared %v, present %v", d, shared, e.MeshDoc != nil)
		}
		prevMesh = e.MeshDoc
	}
	before := driveFixedRequests(t, s1)
	stableBefore := stripWALLines(obs.Metrics().StableExposition())
	for _, fam := range []string{"itm_mapstore_mesh_epochs_total 2", "itm_mapstore_mesh_shared_total 1", "itm_mapstore_mesh_bytes_count 2"} {
		if !strings.Contains(stableBefore, fam+"\n") {
			t.Errorf("pre-crash exposition lacks %q", fam)
		}
	}
	// Crash: no Close. The journal additionally gets a torn half-record, as
	// if the power died mid-append.
	h, err := mem.OpenAppend("wal/journal.itwl")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte{0xFF, 0xEE, 0xDD, 0x00, 0x10}); err != nil {
		t.Fatal(err)
	}

	// --- recovered process: fresh obs, fresh store, same WAL dir.
	obs.Swap(obs.NewSet())
	w2, rec, err := wal.Open(wal.Options{Dir: "wal", FS: mem})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	if rec.TruncatedBytes != 5 {
		t.Fatalf("TruncatedBytes = %d, want 5", rec.TruncatedBytes)
	}
	s2, err := RecoverStore(w2, rec)
	if err != nil {
		t.Fatalf("RecoverStore: %v", err)
	}
	defer obs.Swap(obs.NewSet())

	if s2.Len() != s1.Len() {
		t.Fatalf("recovered %d epochs, want %d", s2.Len(), s1.Len())
	}
	for i, e := range s2.Snapshot() {
		orig, _ := s1.Epoch(i)
		if e.ETag != orig.ETag {
			t.Errorf("epoch %d ETag %q != pre-crash %q", i, e.ETag, orig.ETag)
		}
		if !bytes.Equal(e.record, orig.record) || !reflect.DeepEqual(e.MeshDoc, orig.MeshDoc) {
			t.Errorf("epoch %d record or mesh diverged after recovery: %d bytes (pre-crash %d)", i, len(e.record), len(orig.record))
		}
		if i > 0 && (e.MeshDoc != nil && e.MeshDoc == s2.Snapshot()[i-1].MeshDoc) != wantShared[i] {
			t.Errorf("epoch %d mesh sharing diverged after recovery", i)
		}
	}
	after := driveFixedRequests(t, s2)
	for p, want := range before {
		if after[p] != want {
			t.Errorf("response identity broken for %s:\n pre-crash: %.120q\n recovered: %.120q", p, want, after[p])
		}
	}
	if n := codecEncoded.With().Value(); n != 0 {
		t.Errorf("recovered process reports %d encoded bytes; it adopts the journaled bytes and encodes nothing", n)
	}
	stableAfter := stripWALLines(obs.Metrics().StableExposition())
	if stableAfter != stableBefore {
		t.Errorf("stable exposition diverged across recovery:\n--- before ---\n%s\n--- after ---\n%s",
			stableBefore, stableAfter)
	}

	// Recovery is live, not read-only: the next append journals after the
	// repaired tail, keeps the ID sequence dense, and shares against the
	// adopted mesh bytes.
	e, err := s2.append(4*simtime.Day, ingest{doc: docAt(4), mesh: changed})
	if err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if shared := e.MeshDoc == s2.Snapshot()[3].MeshDoc; e.ID != 4 || w2.Len() != 5 || !shared {
		t.Fatalf("post-recovery append: epoch ID %d, WAL len %d, mesh shared %v; want 4, 5, true", e.ID, w2.Len(), shared)
	}
}

// TestJournalFailureBlocksPublish pins the write-ahead ordering: if the
// fsync fails, Append must return the error and the epoch must NOT be
// served — the WAL can never lag the visible store.
func TestJournalFailureBlocksPublish(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	// Sync #1 is the journal header; sync #2 (the first epoch) fails.
	ffs := wal.NewFaultFS(wal.NewMemFS(), wal.FaultPlan{FailSyncEvery: 2})
	w, _, err := wal.Open(wal.Options{Dir: "wal", FS: ffs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s := NewStore()
	s.AttachWAL(w)
	if _, err := s.Append(0, docAt(0)); !errors.Is(err, wal.ErrSyncFailed) {
		t.Fatalf("Append under failed fsync = %v, want ErrSyncFailed", err)
	}
	if s.Len() != 0 {
		t.Fatalf("unjournaled epoch was published (Len = %d)", s.Len())
	}
	// The failure rolled back cleanly; the retry both journals and publishes.
	if _, err := s.Append(0, docAt(0)); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if s.Len() != 1 || w.Len() != 1 {
		t.Fatalf("after retry: store %d epochs, WAL %d; want 1, 1", s.Len(), w.Len())
	}
}
