package wal

import (
	"bytes"
	"errors"
	"testing"

	"itmap/internal/obs"
	"itmap/internal/simtime"
)

// FuzzReplayWAL mirrors FuzzDecodeMapDocument for the durability layer:
// arbitrary journal bytes must never panic the scanner or Open — they
// either replay a valid prefix of epochs or fail with one of the typed
// errors, the valid prefix always re-scans cleanly (the torn-tail repair
// invariant), and an Open refused for a checksum mismatch mid-journal
// leaves the file as it found it.
func FuzzReplayWAL(f *testing.F) {
	// Seed corpus: a real journal, its truncations, and corruptions.
	mem := NewMemFS()
	w, _, err := Open(Options{Dir: "wal", FS: mem})
	if err != nil {
		f.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(simtime.Time(i), testPayload(i)); err != nil {
			f.Fatalf("Append: %v", err)
		}
	}
	_ = w.Close()
	obs.Swap(obs.NewSet())
	good, err := mem.ReadFile("wal/journal.itwl")
	if err != nil {
		f.Fatalf("ReadFile: %v", err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-3] ^= 0x40
	f.Add(flipped)
	mid := bytes.Clone(good)
	mid[len(mid)/2] ^= 0x40 // inside record 2 of 3: refused, not truncated
	f.Add(mid)
	f.Add([]byte{})
	f.Add([]byte("ITWL"))
	f.Add([]byte("not a journal at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, err := ScanRecords(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid offset %d out of range [0,%d]", valid, len(data))
		}
		if err != nil {
			if !errors.Is(err, ErrBadHeader) && !errors.Is(err, ErrTornRecord) &&
				!errors.Is(err, ErrBadChecksum) && !errors.Is(err, ErrBadRecord) {
				t.Fatalf("untyped scan error: %v", err)
			}
		} else if valid != len(data) {
			t.Fatalf("clean scan stopped at %d of %d bytes", valid, len(data))
		}
		again, validAgain, errAgain := ScanRecords(data[:valid])
		if errAgain != nil || validAgain != valid || len(again) != len(recs) {
			t.Fatalf("valid prefix does not re-scan cleanly: err=%v valid=%d/%d recs=%d/%d",
				errAgain, validAgain, valid, len(again), len(recs))
		}

		// Open over the same bytes as a journal must repair or reject, never
		// panic; non-dense epoch IDs are a typed rejection.
		fs := NewMemFS()
		h, _ := fs.Create("wal/journal.itwl")
		_, _ = h.Write(data)
		w, rec, err := Open(Options{Dir: "wal", FS: fs})
		obs.Swap(obs.NewSet())
		if err != nil {
			if !errors.Is(err, ErrBadHeader) && !errors.Is(err, ErrBadRecord) && !errors.Is(err, ErrBadChecksum) {
				t.Fatalf("Open: untyped error: %v", err)
			}
			if after, _ := fs.ReadFile("wal/journal.itwl"); errors.Is(err, ErrBadChecksum) && !bytes.Equal(after, data) {
				t.Fatalf("Open refused with %v but changed the journal", err)
			}
			return
		}
		if len(rec.Records) > len(recs) {
			t.Fatalf("Open recovered %d epochs from %d scannable records", len(rec.Records), len(recs))
		}
		_ = w.Close()
	})
}
