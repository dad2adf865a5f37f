package mapstore

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"itmap/internal/mapstore/wal"
	"itmap/internal/obs"
	"itmap/internal/simtime"
)

// driveFixedRequests replays the same deterministic request mix against a
// store's handler and captures everything identity-relevant: status, body,
// and ETag per request. Used on both sides of a crash so the comparison
// covers the full serving surface, not just raw epoch bytes.
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
		"/v1/activity/64500",
	}
	for _, p := range paths {
		resp := getFull(t, srv, p, "")
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", p, err)
		}
		out[p] = resp.Header.Get("ETag") + "|" + string(body)
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
// over a crash: a store rebuilt from the WAL (with a torn tail to repair)
// serves byte-identical bodies, identical strong ETags, honors them with
// 304s, and reproduces the same stable metric exposition as the pre-crash
// process under the same request mix.
func TestETagIdentityAcrossRecovery(t *testing.T) {
	mem := wal.NewMemFS()

	// --- original process: journal three epochs, serve, then "crash".
	obs.Swap(obs.NewSet())
	w1, _, err := wal.Open(wal.Options{Dir: "wal", FS: mem, CompactEvery: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s1 := NewStore()
	s1.AttachWAL(w1)
	for d := 0; d < 3; d++ {
		if _, err := s1.Append(simtime.Time(d)*simtime.Day, docAt(d)); err != nil {
			t.Fatalf("append day %d: %v", d, err)
		}
	}
	before := driveFixedRequests(t, s1)
	stableBefore := stripWALLines(obs.Metrics().StableExposition())
	var etagsBefore []string
	for _, e := range s1.Snapshot() {
		etagsBefore = append(etagsBefore, e.ETag)
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
	w2, rec, err := wal.Open(wal.Options{Dir: "wal", FS: mem, CompactEvery: 2})
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
		if e.ETag != etagsBefore[i] {
			t.Errorf("epoch %d ETag %q != pre-crash %q", i, e.ETag, etagsBefore[i])
		}
		orig, _ := s1.Epoch(i)
		if string(e.Encoded) != string(orig.Encoded) {
			t.Errorf("epoch %d canonical bytes diverged after recovery", i)
		}
	}
	after := driveFixedRequests(t, s2)
	for p, want := range before {
		if after[p] != want {
			t.Errorf("response identity broken for %s:\n pre-crash: %.120q\n recovered: %.120q", p, want, after[p])
		}
	}
	if n := obs.C("itm_codec_encoded_bytes_total", "ITMB bytes produced by document encodes.").Value(); n != 0 {
		t.Errorf("recovered process reports %d encoded bytes; it adopts the journaled bytes and encodes nothing", n)
	}
	stableAfter := stripWALLines(obs.Metrics().StableExposition())
	if stableAfter != stableBefore {
		t.Errorf("stable exposition diverged across recovery:\n--- before ---\n%s\n--- after ---\n%s",
			stableBefore, stableAfter)
	}

	// Recovery is live, not read-only: the next append journals after the
	// repaired tail and keeps the ID sequence dense.
	e, err := s2.Append(3*simtime.Day, docAt(3))
	if err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if e.ID != 3 || w2.Len() != 4 {
		t.Fatalf("post-recovery append: epoch ID %d, WAL len %d; want 3, 4", e.ID, w2.Len())
	}
}

// TestJournalFailureBlocksPublish pins the write-ahead ordering: if the
// fsync fails, Append must return the error and the epoch must NOT be
// served — the WAL can never lag the visible store.
func TestJournalFailureBlocksPublish(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	// Sync #1 is the journal header; sync #2 (the first epoch) fails.
	ffs := wal.NewFaultFS(wal.NewMemFS(), wal.FaultPlan{FailSyncEvery: 2})
	w, _, err := wal.Open(wal.Options{Dir: "wal", FS: ffs, CompactEvery: -1})
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
