// Package wal is the map store's durability layer: one append-only journal
// of ITMB-encoded epochs with CRC-checksummed, length-prefixed records,
// fsync-on-append, and torn-tail repair.
//
// On-disk layout: one directory holding journal.itwl, every epoch in ID
// order. A directory that also holds a snapshot.itwl, which older binaries
// compacted the journal's head into, is refused: this version does not read
// it, and replaying the journal without it would drop acknowledged epochs.
//
// File format:
//
//	header    magic "ITWL" | format version (1)
//	record    u32 LE payload length | u32 LE CRC-32C of payload | payload
//	payload   uvarint epoch ID | u64 LE simtime bits | epoch bytes (opaque here:
//	          the ITMB map document, then the ITMB mesh document if any)
//
// Recovery replays the journal. A crash mid-append leaves a torn record at
// its tail; replay detects it (short header, short payload, or checksum
// mismatch at the cut) and truncates the file back to the last whole record
// — every fully-fsynced epoch survives, the torn one never existed. A checksum
// mismatch with bytes after the record's end is not a torn write, since
// nothing is appended past an unacknowledged record: it is damage, and Open
// refuses it rather than cut acknowledged epochs off.
//
// The payload bytes are exactly the store's canonical epoch encodings, so a
// recovered store adopts them and serves byte-identical epochs and ETags
// (mapstore's decoders accept nothing but a canonical encoding on replay).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"sync"

	"itmap/internal/obs"
	"itmap/internal/simtime"
)

// Magic identifies a WAL journal.
var Magic = [4]byte{'I', 'T', 'W', 'L'}

// FormatVersion is the file format this package reads and writes.
const FormatVersion = 1

// headerSize is the file header: magic + version byte.
const headerSize = len(Magic) + 1

// recordHeaderSize prefixes every record: payload length + CRC-32C.
const recordHeaderSize = 8

// maxRecordBytes bounds a single record (a full-scale epoch is ~1 MB; this
// leaves three orders of magnitude of headroom). Larger length fields are
// corruption, not data.
const maxRecordBytes = 1 << 30

// Typed scan errors. Scanning never panics: arbitrary bytes yield a valid
// record prefix plus exactly one of these (see FuzzReplayWAL).
var (
	// ErrBadHeader: the file does not start with the ITWL magic + version.
	ErrBadHeader = errors.New("wal: bad file header")
	// ErrTornRecord: the file ends mid-record — the torn tail an append
	// interrupted by a crash leaves. Recoverable by truncating to the last
	// whole record.
	ErrTornRecord = errors.New("wal: torn record")
	// ErrBadChecksum: a record's payload does not match its CRC — a partial
	// flush whose length field survived, or bit rot.
	ErrBadChecksum = errors.New("wal: record checksum mismatch")
	// ErrBadRecord: a record frames correctly but its payload is malformed
	// (impossible length, short epoch header).
	ErrBadRecord = errors.New("wal: malformed record payload")
	// ErrClosed: the WAL has been closed (or poisoned by an unrepairable
	// I/O failure) and accepts no further appends.
	ErrClosed = errors.New("wal: closed")
)

// crcTable is the Castagnoli polynomial, the standard journal checksum.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one journaled epoch: its dense ID, the simulated time of its
// sweep, and the canonical ITMB encoding of its documents.
type Record struct {
	ID      int
	At      simtime.Time
	Payload []byte
}

// appendRecord encodes r onto dst.
func appendRecord(dst []byte, r Record) []byte {
	payload := make([]byte, 0, binary.MaxVarintLen64+8+len(r.Payload))
	payload = binary.AppendUvarint(payload, uint64(r.ID))
	payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(float64(r.At)))
	payload = append(payload, r.Payload...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// ScanRecords parses a WAL file image. It returns every whole, checksummed
// record in order, the byte offset the valid prefix ends at, and nil if the
// file parsed completely — otherwise exactly one of ErrBadHeader,
// ErrTornRecord, ErrBadChecksum, or ErrBadRecord describing why the scan
// stopped. Re-scanning data[:valid] always parses cleanly: valid is the
// truncation point torn-tail repair uses.
func ScanRecords(data []byte) (recs []Record, valid int, err error) {
	if len(data) == 0 {
		return nil, 0, nil
	}
	if len(data) < headerSize {
		// A crash during file creation can leave a partial header.
		return nil, 0, ErrTornRecord
	}
	if [4]byte(data[:4]) != Magic || data[4] != FormatVersion {
		return nil, 0, ErrBadHeader
	}
	off := headerSize
	for off < len(data) {
		rest := data[off:]
		if len(rest) < recordHeaderSize {
			return recs, off, ErrTornRecord
		}
		length := int(binary.LittleEndian.Uint32(rest))
		sum := binary.LittleEndian.Uint32(rest[4:])
		if length < 9 || length > maxRecordBytes {
			// A payload can't be shorter than uvarint ID + 8 time bytes,
			// and an absurd length field is corruption, not data.
			return recs, off, ErrBadRecord
		}
		if len(rest) < recordHeaderSize+length {
			return recs, off, ErrTornRecord
		}
		payload := rest[recordHeaderSize : recordHeaderSize+length]
		if crc32.Checksum(payload, crcTable) != sum {
			return recs, off, ErrBadChecksum
		}
		id, n := binary.Uvarint(payload)
		if n <= 0 || len(payload) < n+8 || id > math.MaxInt32 {
			return recs, off, ErrBadRecord
		}
		at := math.Float64frombits(binary.LittleEndian.Uint64(payload[n:]))
		recs = append(recs, Record{ID: int(id), At: simtime.Time(at), Payload: payload[n+8:]})
		off += recordHeaderSize + length
	}
	return recs, off, nil
}

// Options configures Open.
type Options struct {
	// Dir is the WAL directory (created if absent).
	Dir string
	// FS overrides the file system (nil = real files).
	FS FS
}

// Recovery reports what Open found.
type Recovery struct {
	// Records is the full recovered epoch sequence, in ID order.
	Records []Record
	// TruncatedBytes is how many torn-tail bytes replay cut off the
	// journal (0 after a clean shutdown).
	TruncatedBytes int64
}

// WAL is an open write-ahead log. Appends are serialized by the caller's
// write path (the store's append mutex); the WAL adds its own lock so
// misuse degrades to blocking, not corruption.
type WAL struct {
	fs          FS
	journalPath string

	mu sync.Mutex
	//itm:guardedby mu
	journal File
	//itm:guardedby mu
	journalSize int64 // bytes known good (header + whole records)
	//itm:guardedby mu
	nextID int
	//itm:guardedby mu
	failed error
}

func path(dir, name string) string {
	if dir == "" {
		return name
	}
	return dir + "/" + name
}

// The WAL families; Open declares them, so a fresh process exposes their
// HELP/TYPE headers before any append or replay.
var (
	appendsTotal = obs.NewCounter("itm_wal_appends_total", "Epoch records appended (and fsynced) to the journal.")
	appendBytes  = obs.NewCounter("itm_wal_append_bytes_total",
		"Bytes appended to the journal, record framing included.")
	repairs = obs.NewCounter("itm_wal_repairs_total",
		"Failed appends rolled back by truncating the journal to the last good record.")
	truncatedBytes = obs.NewCounter("itm_wal_truncated_bytes_total",
		"Torn-tail bytes cut from the journal during replay.")
	// ReplayedEpochs is counted by the store that rebuilds the epochs, once
	// the last recovered one is published — not here at replay — so history
	// samples taken during recovery see the count as it stood before.
	ReplayedEpochs = obs.NewCounter("itm_wal_replayed_epochs_total", "Epochs rebuilt from the WAL at recovery.")
)

// Open replays the journal under dir, repairs a torn tail by truncating to
// the last whole record, and returns the WAL ready for appends plus what it
// recovered. Damage that is not a torn tail is fatal and leaves the files as
// they were: a foreign journal, or a record failing its checksum with bytes
// after it. So is an older binary's snapshot.itwl in dir, refused with an
// error wrapping fs.ErrExist.
func Open(opts Options) (*WAL, *Recovery, error) {
	obs.Declare(appendsTotal, appendBytes, repairs, ReplayedEpochs, truncatedBytes)
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	w := &WAL{fs: fsys, journalPath: path(opts.Dir, "journal.itwl")}
	if err := fsys.MkdirAll(opts.Dir); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	snap := path(opts.Dir, "snapshot.itwl")
	switch _, err := fsys.ReadFile(snap); {
	case err == nil:
		return nil, nil, fmt.Errorf("wal: %s is an older binary's snapshot, which this version does not read: %w", snap, fs.ErrExist)
	case !errors.Is(err, fs.ErrNotExist):
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	rec := &Recovery{}

	// Journal: torn tails are expected crash artifacts — truncate and go on.
	jdata, err := fsys.ReadFile(w.journalPath)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		jdata = nil
	case err != nil:
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	jrecs, valid, serr := ScanRecords(jdata)
	switch {
	case errors.Is(serr, ErrBadHeader):
		// Not a WAL journal at all: refuse to repair over foreign data.
		return nil, nil, fmt.Errorf("wal: journal %s: %w", w.journalPath, serr)
	case errors.Is(serr, ErrBadChecksum) && valid+recordHeaderSize+int(binary.LittleEndian.Uint32(jdata[valid:])) < len(jdata):
		// A torn write is the file's last bytes; this record has more after
		// it, so truncating here would cut acknowledged epochs.
		return nil, nil, fmt.Errorf("wal: journal %s: record at byte %d: %w", w.journalPath, valid, serr)
	case serr != nil:
		rec.TruncatedBytes = int64(len(jdata) - valid)
		if err := fsys.Truncate(w.journalPath, int64(valid)); err != nil {
			return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		truncatedBytes.Add(uint64(rec.TruncatedBytes))
	}
	w.journalSize = int64(valid)
	for i, r := range jrecs {
		if r.ID != i {
			return nil, nil, fmt.Errorf("wal: journal %s: epoch %d at position %d: %w", w.journalPath, r.ID, i, ErrBadRecord)
		}
	}
	rec.Records = jrecs
	w.nextID = len(jrecs)

	if err := w.openJournal(); err != nil {
		return nil, nil, err
	}
	return w, rec, nil
}

// openJournal opens the append handle, first writing the file header when
// the journal is empty (absent, or truncated below a whole header). The
// caller guarantees exclusive access: Open owns the still-unshared WAL.
//
//itm:locked mu
func (w *WAL) openJournal() error {
	f, err := w.fs.OpenAppend(w.journalPath)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if w.journalSize == 0 {
		hdr := append(append([]byte(nil), Magic[:]...), FormatVersion)
		if _, err := f.Write(hdr); err != nil {
			_ = f.Close()
			return fmt.Errorf("wal: %w", err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return fmt.Errorf("wal: %w", err)
		}
		w.journalSize = int64(headerSize)
	}
	w.journal = f
	return nil
}

// Len returns the number of live epochs the WAL holds.
//
//itmlint:allow deadexport test support: mapstore's recovery tests check the WAL never lags or leads the store
func (w *WAL) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextID
}

// Append journals one epoch's canonical encoding and fsyncs before
// returning, so a successful Append survives any later crash. On a write
// or fsync failure the journal is rolled back to the last whole record and
// the error returned — the caller's epoch was NOT made durable, but the
// WAL stays usable and the same append may be retried. Only a failed
// rollback poisons the WAL.
func (w *WAL) Append(at simtime.Time, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	buf := appendRecord(nil, Record{ID: w.nextID, At: at, Payload: payload})
	if _, err := w.journal.Write(buf); err != nil {
		return w.rollback(err)
	}
	if err := w.journal.Sync(); err != nil {
		return w.rollback(err)
	}
	w.journalSize += int64(len(buf))
	w.nextID++
	appendsTotal.Inc()
	appendBytes.Add(uint64(len(buf)))
	return nil
}

// rollback undoes a failed append: the journal is truncated back to the
// last whole record and the handle reopened, so the torn bytes the failed
// write may have landed can never replay. An unrepairable rollback poisons
// the WAL — better no appends than silent divergence.
//
//itm:locked mu
func (w *WAL) rollback(cause error) error {
	_ = w.journal.Close()
	if err := w.fs.Truncate(w.journalPath, w.journalSize); err != nil {
		w.failed = fmt.Errorf("wal: append failed (%v) and rollback failed: %w", cause, err)
		return w.failed
	}
	f, err := w.fs.OpenAppend(w.journalPath)
	if err != nil {
		w.failed = fmt.Errorf("wal: append failed (%v) and reopen failed: %w", cause, err)
		return w.failed
	}
	w.journal = f
	repairs.Inc()
	return fmt.Errorf("wal: append: %w", cause)
}

// Close fsyncs and closes the journal. The WAL accepts no appends
// afterwards; the file always ends on a record boundary.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		if errors.Is(w.failed, ErrClosed) {
			return nil
		}
		return w.failed
	}
	err := w.journal.Sync()
	if cerr := w.journal.Close(); err == nil {
		err = cerr
	}
	w.failed = ErrClosed
	return err
}
