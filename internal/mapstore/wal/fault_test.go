package wal

import (
	"bytes"
	"errors"
	"testing"

	"itmap/internal/obs"
	"itmap/internal/randx"
	"itmap/internal/simtime"
)

// TestCrashRecoverySweep is the deterministic crash proof: for a spread of
// seeds, a FaultFS cuts the power after a seed-chosen number of written
// bytes while the WAL appends. Rebooting from the
// crash image must recover exactly the appends that returned nil —
// byte-identical, nothing extra — and the recovered WAL must keep working.
func TestCrashRecoverySweep(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	for seed := int64(1); seed <= 40; seed++ {
		rng := randx.New(seed)
		plan := FaultPlan{CrashAfterBytes: 5 + int64(rng.Intn(4000))}
		ffs := NewFaultFS(NewMemFS(), plan)

		w, _, err := Open(Options{Dir: "wal", FS: ffs})
		if err != nil {
			// Crash during the very first header write: nothing durable yet.
			if !errors.Is(err, ErrCrash) {
				t.Fatalf("seed %d: Open: %v", seed, err)
			}
			continue
		}
		var acked [][]byte
		for i := 0; i < 200; i++ {
			p := testPayload(i)
			if err := w.Append(simtime.Time(i), p); err != nil {
				break
			}
			acked = append(acked, p)
		}
		if !ffs.Crashed() {
			t.Fatalf("seed %d: plan %+v never crashed in 200 appends", seed, plan)
		}

		// Reboot: replay whatever the device kept, torn tail and all.
		img := ffs.CrashImage()
		w2, rec, err := Open(Options{Dir: "wal", FS: img})
		if err != nil {
			t.Fatalf("seed %d: recovery open: %v", seed, err)
		}
		if len(rec.Records) != len(acked) {
			t.Fatalf("seed %d (crash after %d bytes): recovered %d epochs, acked %d (truncated %d)",
				seed, plan.CrashAfterBytes, len(rec.Records), len(acked), rec.TruncatedBytes)
		}
		for i, r := range rec.Records {
			if r.ID != i || !bytes.Equal(r.Payload, acked[i]) {
				t.Fatalf("seed %d: recovered record %d diverges from acked append", seed, i)
			}
		}
		// Recovery is not read-only: the store must append onward.
		if err := w2.Append(simtime.Time(len(acked)), testPayload(len(acked))); err != nil {
			t.Fatalf("seed %d: append after recovery: %v", seed, err)
		}
		if w2.Len() != len(acked)+1 {
			t.Fatalf("seed %d: Len after recovery append = %d", seed, w2.Len())
		}
	}
}

// TestSyncFailureSweep: fsync failures are reported, rolled back, and never
// corrupt the journal — after any mix of failed and retried appends, a
// replay sees a clean file holding exactly the acknowledged records.
func TestSyncFailureSweep(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	for seed := int64(1); seed <= 10; seed++ {
		rng := randx.New(seed)
		mem := NewMemFS()
		ffs := NewFaultFS(mem, FaultPlan{
			FailSyncEvery:   2 + rng.Intn(4),
			ShortWriteEvery: 3 + rng.Intn(5),
		})
		w, _, err := Open(Options{Dir: "wal", FS: ffs})
		if err != nil {
			t.Fatalf("seed %d: Open: %v", seed, err)
		}
		var acked int
		for i := 0; i < 50; i++ {
			err := w.Append(simtime.Time(acked), testPayload(acked))
			switch {
			case err == nil:
				acked++
			case errors.Is(err, ErrSyncFailed) || errors.Is(err, ErrShortWrite):
				// Rolled back; the same epoch retries on the next loop turn.
			default:
				t.Fatalf("seed %d: append %d: %v", seed, i, err)
			}
		}
		_ = w.Close()
		data, err := mem.ReadFile("wal/journal.itwl")
		if err != nil {
			t.Fatalf("seed %d: ReadFile: %v", seed, err)
		}
		recs, valid, serr := ScanRecords(data)
		if serr != nil || valid != len(data) {
			t.Fatalf("seed %d: journal not clean after rollbacks: %v (valid %d/%d)",
				seed, serr, valid, len(data))
		}
		if len(recs) != acked {
			t.Fatalf("seed %d: journal holds %d records, acked %d", seed, len(recs), acked)
		}
	}
}
