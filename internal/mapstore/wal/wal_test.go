package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"itmap/internal/obs"
	"itmap/internal/simtime"
)

// compact forces the compaction Append runs every CompactEvery records.
func compact(w *WAL) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.compactLocked()
}

func testPayload(i int) []byte {
	return []byte(fmt.Sprintf("epoch-%d canonical bytes %032d", i, i*i))
}

// appendN appends n test records and fails the test on any error.
func appendN(t *testing.T, w *WAL, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := w.Append(simtime.Time(i), testPayload(i)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
}

// wantRecords asserts recs is exactly the first n test records.
func wantRecords(t *testing.T, recs []Record, n int) {
	t.Helper()
	if len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.ID != i {
			t.Fatalf("record %d: ID = %d", i, r.ID)
		}
		if r.At != simtime.Time(i) {
			t.Fatalf("record %d: At = %v, want %v", i, r.At, simtime.Time(i))
		}
		if !bytes.Equal(r.Payload, testPayload(i)) {
			t.Fatalf("record %d: payload %q, want %q", i, r.Payload, testPayload(i))
		}
	}
}

func TestAppendReopenRoundtrip(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	mem := NewMemFS()
	w, rec, err := Open(Options{Dir: "wal", FS: mem, CompactEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(rec.Records) != 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("fresh open recovered %+v", rec)
	}
	appendN(t, w, 7)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.Append(simtime.Time(99), testPayload(99)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}

	w2, rec2, err := Open(Options{Dir: "wal", FS: mem, CompactEvery: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	wantRecords(t, rec2.Records, 7)
	if rec2.TruncatedBytes != 0 {
		t.Fatalf("clean reopen truncated %d bytes", rec2.TruncatedBytes)
	}
	if rec2.JournalRecords != 7 || rec2.SnapshotRecords != 0 {
		t.Fatalf("recovery split = %+v", rec2)
	}
	// The reopened WAL keeps appending where the first left off.
	if err := w2.Append(simtime.Time(7), testPayload(7)); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	_, rec3, err := Open(Options{Dir: "wal", FS: mem, CompactEvery: -1})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	wantRecords(t, rec3.Records, 8)
}

func TestTornTailTruncatedOnReplay(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	mem := NewMemFS()
	w, _, err := Open(Options{Dir: "wal", FS: mem, CompactEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendN(t, w, 4)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a crash mid-append: junk bytes after the last whole record.
	h, err := mem.OpenAppend("wal/journal.itwl")
	if err != nil {
		t.Fatalf("OpenAppend: %v", err)
	}
	torn := []byte("TORNTAIL")
	if _, err := h.Write(torn); err != nil {
		t.Fatalf("write junk: %v", err)
	}

	_, rec, err := Open(Options{Dir: "wal", FS: mem, CompactEvery: -1})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	wantRecords(t, rec.Records, 4)
	if rec.TruncatedBytes != int64(len(torn)) {
		t.Fatalf("TruncatedBytes = %d, want %d", rec.TruncatedBytes, len(torn))
	}
	// The repair is durable: a second replay sees a clean journal.
	_, rec2, err := Open(Options{Dir: "wal", FS: mem, CompactEvery: -1})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	if rec2.TruncatedBytes != 0 {
		t.Fatalf("second replay still truncated %d bytes", rec2.TruncatedBytes)
	}
	wantRecords(t, rec2.Records, 4)
}

func TestTornRecordMidPayloadTruncated(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	mem := NewMemFS()
	w, _, err := Open(Options{Dir: "wal", FS: mem, CompactEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendN(t, w, 3)
	_ = w.Close()
	// Cut into the last record's payload: framing says more bytes than exist.
	data, err := mem.ReadFile("wal/journal.itwl")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if err := mem.Truncate("wal/journal.itwl", int64(len(data)-7)); err != nil {
		t.Fatalf("Truncate: %v", err)
	}

	_, rec, err := Open(Options{Dir: "wal", FS: mem, CompactEvery: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	wantRecords(t, rec.Records, 2)
	if rec.TruncatedBytes == 0 {
		t.Fatal("expected torn-tail truncation")
	}
}

func TestCompactionAndReplay(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	mem := NewMemFS()
	w, _, err := Open(Options{Dir: "wal", FS: mem, CompactEvery: 3})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendN(t, w, 10) // compacts at 3, 6, 9; one record left in the journal
	if jr := w.journalRecords; jr != 1 {
		t.Fatalf("journal holds %d records after auto-compaction, want 1", jr)
	}
	if w.Len() != 10 {
		t.Fatalf("Len = %d, want 10", w.Len())
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	snap, err := mem.ReadFile("wal/snapshot.itwl")
	if err != nil {
		t.Fatalf("snapshot missing after compaction: %v", err)
	}
	srecs, _, serr := ScanRecords(snap)
	if serr != nil || len(srecs) != 9 {
		t.Fatalf("snapshot scan: %d records, err %v; want 9, nil", len(srecs), serr)
	}

	_, rec, err := Open(Options{Dir: "wal", FS: mem, CompactEvery: 3})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	wantRecords(t, rec.Records, 10)
	if rec.SnapshotRecords != 9 || rec.JournalRecords != 1 {
		t.Fatalf("recovery split %+v, want 9 snapshot + 1 journal", rec)
	}
}

// TestStaleJournalSkippedAfterCompactionCrash covers the one compaction
// crash window a byte-count fault can't reach: the snapshot rename landed
// but the journal truncate did not, so the journal still holds records the
// snapshot already covers. Replay must skip them by epoch ID.
func TestStaleJournalSkippedAfterCompactionCrash(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	mem := NewMemFS()
	w, _, err := Open(Options{Dir: "wal", FS: mem, CompactEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendN(t, w, 5)
	_ = w.Close()
	journal, err := mem.ReadFile("wal/journal.itwl")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}

	// Compact (via a fresh handle), then restore the pre-compaction journal
	// bytes to fake the crash-before-truncate state.
	w2, _, err := Open(Options{Dir: "wal", FS: mem, CompactEvery: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := compact(w2); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	_ = w2.Close()
	h, err := mem.Create("wal/journal.itwl")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := h.Write(journal); err != nil {
		t.Fatalf("restore journal: %v", err)
	}

	w3, rec, err := Open(Options{Dir: "wal", FS: mem, CompactEvery: -1})
	if err != nil {
		t.Fatalf("open with stale journal: %v", err)
	}
	wantRecords(t, rec.Records, 5)
	if rec.SnapshotRecords != 5 || rec.JournalRecords != 0 {
		t.Fatalf("recovery split %+v, want all 5 from snapshot, 0 live journal", rec)
	}
	// Appending continues after the stale tail without colliding.
	if err := w3.Append(simtime.Time(5), testPayload(5)); err != nil {
		t.Fatalf("append after stale-tail recovery: %v", err)
	}
	_, rec2, err := Open(Options{Dir: "wal", FS: mem, CompactEvery: -1})
	if err != nil {
		t.Fatalf("final open: %v", err)
	}
	wantRecords(t, rec2.Records, 6)
}

func TestFailedFsyncRollsBackAndRetries(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	mem := NewMemFS()
	// Sync #1 is the journal header at Open; fail sync #2 (first append).
	ffs := NewFaultFS(mem, FaultPlan{FailSyncEvery: 2})
	w, _, err := Open(Options{Dir: "wal", FS: ffs, CompactEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := w.Append(simtime.Time(0), testPayload(0)); !errors.Is(err, ErrSyncFailed) {
		t.Fatalf("append under failed fsync = %v, want ErrSyncFailed", err)
	}
	// The failed append rolled back: the write landed in the page cache but
	// the rollback truncated it, so nothing of record 0 can ever replay.
	if err := w.Append(simtime.Time(0), testPayload(0)); err != nil {
		t.Fatalf("retry append: %v", err)
	}
	_ = w.Close()

	_, rec, err := Open(Options{Dir: "wal", FS: mem, CompactEvery: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	wantRecords(t, rec.Records, 1)
}

func TestShortWriteRollsBackAndRetries(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	mem := NewMemFS()
	// Write #1 is the journal header; cut write #2 (first append) in half.
	ffs := NewFaultFS(mem, FaultPlan{ShortWriteEvery: 2})
	w, _, err := Open(Options{Dir: "wal", FS: ffs, CompactEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := w.Append(simtime.Time(0), testPayload(0)); !errors.Is(err, ErrShortWrite) {
		t.Fatalf("append under short write = %v, want ErrShortWrite", err)
	}
	if err := w.Append(simtime.Time(0), testPayload(0)); err != nil {
		t.Fatalf("retry append: %v", err)
	}
	_ = w.Close()

	data, err := mem.ReadFile("wal/journal.itwl")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	recs, _, serr := ScanRecords(data)
	if serr != nil {
		t.Fatalf("journal not clean after rollback: %v", serr)
	}
	wantRecords(t, recs, 1)
}

func TestCloseEndsOnRecordBoundary(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	mem := NewMemFS()
	w, _, err := Open(Options{Dir: "wal", FS: mem, CompactEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendN(t, w, 3)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := mem.ReadFile("wal/journal.itwl")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	recs, valid, serr := ScanRecords(data)
	if serr != nil {
		t.Fatalf("journal after Close does not end on a record boundary: %v", serr)
	}
	if valid != len(data) {
		t.Fatalf("valid prefix %d != file size %d", valid, len(data))
	}
	wantRecords(t, recs, 3)
}

func TestCorruptSnapshotIsFatal(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	mem := NewMemFS()
	w, _, err := Open(Options{Dir: "wal", FS: mem, CompactEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendN(t, w, 4)
	if err := compact(w); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	_ = w.Close()
	// Flip a payload byte inside the snapshot: checksum mismatch, and since
	// snapshots are written atomically this is damage, not a crash artifact.
	data, _ := mem.ReadFile("wal/snapshot.itwl")
	h, _ := mem.Create("wal/snapshot.itwl")
	data[len(data)-2] ^= 0xFF
	if _, err := h.Write(data); err != nil {
		t.Fatalf("write corrupted snapshot: %v", err)
	}
	if _, _, err := Open(Options{Dir: "wal", FS: mem, CompactEvery: -1}); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("Open over corrupt snapshot = %v, want ErrBadChecksum", err)
	}
}

func TestForeignJournalIsFatal(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	mem := NewMemFS()
	h, _ := mem.Create("wal/journal.itwl")
	if _, err := h.Write([]byte("definitely not a WAL file, more than five bytes")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, _, err := Open(Options{Dir: "wal", FS: mem, CompactEvery: -1}); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("Open over foreign journal = %v, want ErrBadHeader", err)
	}
}

func TestScanRecordsValidPrefixProperty(t *testing.T) {
	mem := NewMemFS()
	defer obs.Swap(obs.NewSet())
	w, _, err := Open(Options{Dir: "wal", FS: mem, CompactEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendN(t, w, 5)
	_ = w.Close()
	data, _ := mem.ReadFile("wal/journal.itwl")
	// Every possible cut point yields a clean valid prefix.
	for cut := 0; cut <= len(data); cut++ {
		recs, valid, serr := ScanRecords(data[:cut])
		if valid > cut {
			t.Fatalf("cut %d: valid %d beyond data", cut, valid)
		}
		again, validAgain, errAgain := ScanRecords(data[:valid])
		if errAgain != nil {
			t.Fatalf("cut %d: rescan of valid prefix failed: %v", cut, errAgain)
		}
		if validAgain != valid || len(again) != len(recs) {
			t.Fatalf("cut %d: rescan mismatch (%d/%d records, %d/%d valid)",
				cut, len(again), len(recs), validAgain, valid)
		}
		if serr == nil && cut != valid {
			t.Fatalf("cut %d: clean scan but valid %d", cut, valid)
		}
	}
}
