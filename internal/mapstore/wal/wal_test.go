package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"testing"

	"itmap/internal/obs"
	"itmap/internal/simtime"
)

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
	w, rec, err := Open(Options{Dir: "wal", FS: mem})
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

	w2, rec2, err := Open(Options{Dir: "wal", FS: mem})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	wantRecords(t, rec2.Records, 7)
	if rec2.TruncatedBytes != 0 {
		t.Fatalf("clean reopen truncated %d bytes", rec2.TruncatedBytes)
	}
	// The reopened WAL keeps appending where the first left off.
	if err := w2.Append(simtime.Time(7), testPayload(7)); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	_, rec3, err := Open(Options{Dir: "wal", FS: mem})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	wantRecords(t, rec3.Records, 8)
}

func TestTornTailTruncatedOnReplay(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	mem := NewMemFS()
	w, _, err := Open(Options{Dir: "wal", FS: mem})
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

	_, rec, err := Open(Options{Dir: "wal", FS: mem})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	wantRecords(t, rec.Records, 4)
	if rec.TruncatedBytes != int64(len(torn)) {
		t.Fatalf("TruncatedBytes = %d, want %d", rec.TruncatedBytes, len(torn))
	}
	// The repair is durable: a second replay sees a clean journal.
	_, rec2, err := Open(Options{Dir: "wal", FS: mem})
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
	w, _, err := Open(Options{Dir: "wal", FS: mem})
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

	_, rec, err := Open(Options{Dir: "wal", FS: mem})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	wantRecords(t, rec.Records, 2)
	if rec.TruncatedBytes == 0 {
		t.Fatal("expected torn-tail truncation")
	}
}

// plant writes a file the way an older binary or a damaged disk left it.
func plant(t *testing.T, mem *MemFS, name string, data []byte) {
	t.Helper()
	h, err := mem.Create(name)
	if err != nil {
		t.Fatalf("Create %s: %v", name, err)
	}
	if _, err := h.Write(data); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
}

// journalOf returns the journal a fresh WAL leaves after n test appends, and
// the offset each of its records starts at.
func journalOf(t *testing.T, n int) ([]byte, []int) {
	t.Helper()
	mem := NewMemFS()
	w, _, err := Open(Options{Dir: "wal", FS: mem})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendN(t, w, n)
	_ = w.Close()
	data, err := mem.ReadFile("wal/journal.itwl")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var starts []int
	for off := headerSize; off < len(data); off += recordHeaderSize + int(binary.LittleEndian.Uint32(data[off:])) {
		starts = append(starts, off)
	}
	return data, starts
}

// TestMidJournalCorruptionIsFatal: a record failing its checksum with bytes
// after it cannot be a torn write — the next append starts only after this
// one's fsync, and a failed append is rolled back — so Open refuses it and
// leaves the journal alone instead of cutting the acknowledged epochs after
// it. The same damage in the last record is a torn tail and is cut.
func TestMidJournalCorruptionIsFatal(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	good, starts := journalOf(t, 5)
	for _, tc := range []struct {
		record int // 1-based
		want   error
		keep   int
	}{{2, ErrBadChecksum, 0}, {5, nil, 4}} {
		mem := NewMemFS()
		bad := bytes.Clone(good)
		bad[starts[tc.record-1]+recordHeaderSize+3] ^= 0x01
		plant(t, mem, "wal/journal.itwl", bad)
		_, rec, err := Open(Options{Dir: "wal", FS: mem})
		after, _ := mem.ReadFile("wal/journal.itwl")
		if !errors.Is(err, tc.want) {
			t.Fatalf("record %d of 5 flipped: Open = %v, want %v", tc.record, err, tc.want)
		}
		if tc.want != nil {
			if !bytes.Equal(after, bad) {
				t.Fatalf("record %d of 5 flipped: refused Open changed the journal (%d → %d bytes)", tc.record, len(bad), len(after))
			}
			continue
		}
		wantRecords(t, rec.Records, tc.keep)
		if rec.TruncatedBytes != int64(len(good)-starts[tc.keep]) || len(after) != starts[tc.keep] {
			t.Fatalf("record %d of 5 flipped: truncated %d bytes to %d, want the last record cut", tc.record, rec.TruncatedBytes, len(after))
		}
	}
}

// TestSnapshotDirectoryRefused: a directory holding the snapshot.itwl an
// older, compacting binary wrote is refused with fs.ErrExist, whatever the
// snapshot holds, and neither file is touched. Replaying the journal alone
// would drop the epochs the snapshot holds.
func TestSnapshotDirectoryRefused(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	journal, _ := journalOf(t, 5)
	for _, snap := range [][]byte{journal, {}, []byte("not a WAL file")} {
		mem := NewMemFS()
		plant(t, mem, "wal/snapshot.itwl", snap)
		plant(t, mem, "wal/journal.itwl", journal)
		if _, _, err := Open(Options{Dir: "wal", FS: mem}); !errors.Is(err, fs.ErrExist) || !strings.Contains(err.Error(), "wal/snapshot.itwl") {
			t.Errorf("Open beside a %d-byte snapshot = %v, want fs.ErrExist naming the file", len(snap), err)
		}
		gotSnap, _ := mem.ReadFile("wal/snapshot.itwl")
		gotJournal, _ := mem.ReadFile("wal/journal.itwl")
		if !bytes.Equal(gotSnap, snap) || !bytes.Equal(gotJournal, journal) {
			t.Errorf("refused Open beside a %d-byte snapshot changed the files", len(snap))
		}
	}
}

func TestFailedFsyncRollsBackAndRetries(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	mem := NewMemFS()
	// Sync #1 is the journal header at Open; fail sync #2 (first append).
	ffs := NewFaultFS(mem, FaultPlan{FailSyncEvery: 2})
	w, _, err := Open(Options{Dir: "wal", FS: ffs})
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

	_, rec, err := Open(Options{Dir: "wal", FS: mem})
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
	w, _, err := Open(Options{Dir: "wal", FS: ffs})
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
	w, _, err := Open(Options{Dir: "wal", FS: mem})
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

func TestForeignJournalIsFatal(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	mem := NewMemFS()
	plant(t, mem, "wal/journal.itwl", []byte("definitely not a WAL file, more than five bytes"))
	if _, _, err := Open(Options{Dir: "wal", FS: mem}); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("Open over foreign journal = %v, want ErrBadHeader", err)
	}
}

func TestScanRecordsValidPrefixProperty(t *testing.T) {
	mem := NewMemFS()
	defer obs.Swap(obs.NewSet())
	w, _, err := Open(Options{Dir: "wal", FS: mem})
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
