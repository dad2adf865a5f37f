package mapstore

import (
	"fmt"

	"itmap/internal/core"
	"itmap/internal/mapstore/wal"
	"itmap/internal/parallel"
)

// This file glues the store to its write-ahead log. The coupling is thin
// because the WAL journals exactly the store's epoch records (the map's
// canonical encoding, then the mesh's when there is one), and recovery
// identity is by adoption: the journaled payload becomes the recovered
// epoch's record and the source of its ETag. Those are the very bytes the
// pre-crash store hashed, so recovered == pre-crash holds by construction
// rather than by re-encoding at every boot. What remains to be guaranteed is
// that a record is the canonical encoding of the documents it decodes to,
// and that guarantee is the decoders': they reject every non-canonical input
// (FuzzDecodeMapDocument, FuzzDecodeMeshSections and FuzzDecodeEpochPayload
// pin decode→re-encode byte-identity, TestRecoverStoreMatchesReencodeOracle
// pins this path against the store that wrote the journal). Corruption on
// disk is the WAL's CRC-32C's to catch, before a payload ever gets here.

// AttachWAL journals every future append through w. Append only returns
// success after the epoch is fsynced; a journaling failure fails the append
// and the epoch is not published. Attach before the first append (or right
// after RecoverStore, which does it for you).
func (s *Store) AttachWAL(w *wal.WAL) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wal = w
}

// RecoverStore rebuilds a store from what wal.Open replayed and attaches the
// WAL so new appends journal after the recovered tail. The store retains
// each record's Payload as that epoch's record. Records are independent
// until the serial share-and-publish step, so they are decoded ahead on one
// goroutine per CPU and appended in order; the decoders are pure and their
// one counter a commutative add, so the result is the same at any CPU count.
func RecoverStore(w *wal.WAL, rec *wal.Recovery) (*Store, error) {
	s := NewStore()
	type decoded struct {
		in  ingest
		err error
	}
	docs := make([]decoded, len(rec.Records))
	parallel.ForEach(len(docs), func(i int) {
		docs[i].in, docs[i].err = decodeRecord(rec.Records[i].Payload)
	})
	for i, r := range rec.Records {
		d := &docs[i]
		if d.err != nil {
			return nil, fmt.Errorf("mapstore: recover epoch %d: %w", r.ID, d.err)
		}
		e, err := s.append(r.At, d.in)
		if err != nil {
			return nil, fmt.Errorf("mapstore: recover epoch %d: %w", r.ID, err)
		}
		// The WAL hands out dense IDs from zero; anything else would shift
		// every epoch-scoped ETag.
		if e.ID != r.ID {
			return nil, fmt.Errorf("mapstore: recover epoch %d: store assigned ID %d", r.ID, e.ID)
		}
	}
	wal.ReplayedEpochs.Add(uint64(len(rec.Records)))
	s.AttachWAL(w)
	return s, nil
}

// decodeRecord turns one journaled epoch back into the ingest value append
// made it from: the map document, the mesh document when the epoch carried
// one, and the record itself (aliasing payload) for append to adopt. The
// record is the two encodings back to back with nothing between them. Both
// start with the ITMB magic and their own codec version, and the map
// decoder ends exactly where the map does, so the split needs no framing —
// and a map-only epoch's record is its map encoding alone. Whatever
// follows the map must be one whole canonical mesh document: a second map,
// a torn mesh or trailing junk is a typed error, and a map in an older
// codec version is refused with ErrVersion.
func decodeRecord(payload []byte) (ingest, error) {
	in := ingest{doc: &core.MapDocument{}, rec: encoding{bytes: payload}}
	if err := decodeInto(in.doc, &in.rec, true); err != nil {
		return ingest{}, err
	}
	if tail := in.rec.off.span(payload, wireMesh); len(tail) > 0 {
		var err error
		if in.mesh, err = DecodeMeshDocument(tail); err != nil {
			return ingest{}, fmt.Errorf("mesh sections: %w", err)
		}
	}
	return in, nil
}
