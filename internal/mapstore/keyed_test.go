package mapstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"itmap/internal/core"
	"itmap/internal/mapstore/wal"
	"itmap/internal/obs"
	"itmap/internal/simtime"
)

// TestKeyedSectionsWellFormed: the table is the wire format's middle — its
// rows are in wire order and cover wireHitRates..wireConfidence exactly once
// — and every row says which payload it carries in exactly one way.
func TestKeyedSectionsWellFormed(t *testing.T) {
	if len(keyedSections) != wireConfidence-wireHitRates+1 {
		t.Fatalf("%d rows for wire sections %d..%d", len(keyedSections), wireHitRates, wireConfidence)
	}
	for i, sec := range keyedSections {
		if sec.wire != wireHitRates+i {
			t.Errorf("row %d (%s) has wire index %d, want %d: rows must follow wire order", i, sec.name, sec.wire, wireHitRates+i)
		}
		if (sec.floats == nil) == (sec.labels == nil) {
			t.Errorf("row %s: exactly one of floats and labels must be set", sec.name)
		}
		if (sec.labels == nil) != (sec.codes == nil) {
			t.Errorf("row %s: a label table goes with the labels accessor, and only with it", sec.name)
		}
		if sec.name == "" || sec.key == "" || sec.value == "" {
			t.Errorf("row %d lacks an error context", i)
		}
	}
	if sectionCount != wireSections-1 || secAll != 1<<sectionCount-1 || secActives != 1 || secMappings != 1<<(sectionCount-1) {
		t.Errorf("section bits do not follow the wire indexes: count %d, all %b", sectionCount, secAll)
	}
}

// errClass names the typed error err is, "" for none.
func errClass(err error) string {
	for name, typed := range map[string]error{
		"encode": ErrEncode, "corrupt": ErrCorrupt, "truncated": ErrTruncated, "version": ErrVersion, "magic": ErrMagic,
	} {
		if errors.Is(err, typed) {
			return name
		}
	}
	if err != nil {
		return "untyped: " + err.Error()
	}
	return ""
}

// TestKeyedTableRejectsWhatParentRejected walks the malformed matrix — every
// keyed section × a bad key, an unknown label, a cut at every byte, a zero
// delta, a key and a code out of range, a count the input cannot hold — and
// requires the typed error class the hand-written codec before the table
// gave: an unencodable document is ErrEncode; a cut is ErrTruncated, unless
// the section's count already promises more entries than the bytes left can
// hold, which is ErrCorrupt; every other malformation is ErrCorrupt.
func TestKeyedTableRejectsWhatParentRejected(t *testing.T) {
	for i := range keyedSections {
		sec := &keyedSections[i]

		// Encode side: what the document maps can hold and the wire cannot.
		unencodable := map[string]func(*core.MapDocument){}
		for _, key := range []string{"", "nope", "-1", "1.2.3.4/24x", "4294967296", "1.2.3.0/25"} {
			key := key
			unencodable["bad key "+key] = func(d *core.MapDocument) {
				if sec.floats != nil {
					(*sec.floats(d))[key] = 1
				} else {
					(*sec.labels(d))[key] = sec.codes[0]
				}
			}
		}
		if sec.labels != nil {
			unencodable["unknown label"] = func(d *core.MapDocument) {
				for k := range *sec.labels(d) {
					(*sec.labels(d))[k] = "hearsay"
				}
			}
		}
		for name, mutate := range unencodable {
			doc := sampleDoc()
			mutate(doc)
			if _, err := encodeDocument(doc); errClass(err) != "encode" {
				t.Errorf("%s, %s: error class %q, want encode", sec.name, name, errClass(err))
			}
		}

		// Decode side: a valid document with this section's bytes replaced.
		enc, err := encodeDocument(sampleDoc())
		if err != nil {
			t.Fatal(err)
		}
		payload, minEntry := []byte{1, 2, 3, 4, 5, 6, 7, 8}, 9
		if sec.codes != nil {
			payload, minEntry = []byte{0}, 2
		}
		entry := func(delta uint64, payload []byte) []byte {
			return append(binary.AppendUvarint(nil, delta), payload...)
		}
		malformed := map[string][]byte{
			"zero delta":       bytes.Join([][]byte{{2}, entry(5, payload), entry(0, payload)}, nil),
			"key out of range": append([]byte{1}, entry(sec.maxKey()+1, payload)...),
			"key sum wraps":    bytes.Join([][]byte{{2}, entry(5, payload), entry(math.MaxUint64-2, payload)}, nil),
			"oversized count":  append(binary.AppendUvarint(nil, 1<<40), entry(1, payload)...),
			"overlong varint":  append([]byte{1, 0x81, 0x00}, payload...),
		}
		if sec.codes != nil {
			malformed["code out of range"] = append([]byte{1}, entry(1, []byte{byte(len(sec.codes))})...)
		}
		start, end := enc.off[sec.wire], enc.off[sec.wire+1]
		for name, section := range malformed {
			_, _, err := decodeDocument(bytes.Join([][]byte{enc.bytes[:start], section, enc.bytes[end:]}, nil))
			if errClass(err) != "corrupt" {
				t.Errorf("%s, %s: error class %q, want corrupt", sec.name, name, errClass(err))
			}
		}
		// The sample's counts are one-byte varints.
		count := int(enc.bytes[start])
		for cut := start; cut < end; cut++ {
			want := "truncated"
			if cut > start && count*minEntry > cut-start-1 {
				want = "corrupt"
			}
			if _, _, err := decodeDocument(enc.bytes[:cut]); errClass(err) != want {
				t.Errorf("%s, cut %d bytes in: error class %q, want %s", sec.name, cut-start, errClass(err), want)
			}
		}
	}
}

// collidingDocs returns, per keyed section, sampleDoc with one more key in
// that section whose typed form an existing key already has ("064500" beside
// "64500", "01.0.0.0/24" beside "1.0.0.0/24").
func collidingDocs() map[string]*core.MapDocument {
	out := map[string]*core.MapDocument{}
	for i := range keyedSections {
		sec := &keyedSections[i]
		doc := sampleDoc()
		if sec.floats != nil {
			for k, v := range *sec.floats(doc) {
				(*sec.floats(doc))["0"+k] = v + 1
				break
			}
		} else {
			for k, v := range *sec.labels(doc) {
				(*sec.labels(doc))["0"+k] = v
				break
			}
		}
		out[sec.name] = doc
	}
	return out
}

// TestEncodeRejectsCollidingKeys: two keys of one keyed section with the same
// typed form are unencodable. Encoded, they would be a key delta of zero,
// which the decoder refuses — a journal record recovery could not read.
func TestEncodeRejectsCollidingKeys(t *testing.T) {
	docs := collidingDocs()
	if len(docs) != len(keyedSections) {
		t.Fatalf("%d colliding documents for %d sections", len(docs), len(keyedSections))
	}
	for name, doc := range docs {
		if _, err := EncodeDocument(doc); !errors.Is(err, ErrEncode) {
			t.Errorf("%s: colliding keys encoded: err = %v, want ErrEncode", name, err)
		}
	}
}

// TestAppendStillRejectsMalformedKeys: every malformed key or label of the
// six users sections is turned away by the encoder (ErrEncode) before the
// store publishes anything.
func TestAppendStillRejectsMalformedKeys(t *testing.T) {
	cases := map[string]func(*core.MapDocument){
		"actives: bad prefix":          func(d *core.MapDocument) { d.ActivePrefixes = append(d.ActivePrefixes, "zzz") },
		"actives: not a /24":           func(d *core.MapDocument) { d.ActivePrefixes = append(d.ActivePrefixes, "10.0.0.0/8") },
		"actives: octet out of range":  func(d *core.MapDocument) { d.ActivePrefixes = append(d.ActivePrefixes, "1.0.256.0/24") },
		"hit rates: bad prefix":        func(d *core.MapDocument) { d.PrefixHitRates["1.0.0/24"] = 0.5 },
		"hit rates: trailing garbage":  func(d *core.MapDocument) { d.PrefixHitRates["1.0.0.0/24x"] = 0.5 },
		"activity: bad ASN":            func(d *core.MapDocument) { d.ASActivity["AS64500"] = 1 },
		"activity: ASN over 32 bits":   func(d *core.MapDocument) { d.ASActivity["4294967296"] = 1 },
		"activity: empty ASN":          func(d *core.MapDocument) { d.ASActivity[""] = 1 },
		"sources: bad ASN":             func(d *core.MapDocument) { d.Sources["-1"] = "root-logs" },
		"sources: unknown label":       func(d *core.MapDocument) { d.Sources["64500"] = "hearsay" },
		"coverage: bad prefix":         func(d *core.MapDocument) { d.Coverage["1.0.0.1/24"] = "stale" },
		"coverage: unknown label":      func(d *core.MapDocument) { d.Coverage["1.0.0.0/24"] = "somewhat" },
		"confidence: bad ASN":          func(d *core.MapDocument) { d.ASConfidence["64500 "] = 1 },
		"confidence: ASN over 32 bits": func(d *core.MapDocument) { d.ASConfidence["99999999999"] = 1 },
	}
	for name, corrupt := range cases {
		doc := sampleDoc()
		corrupt(doc)
		s := NewStore()
		if _, err := s.Append(0, doc); !errors.Is(err, ErrEncode) {
			t.Errorf("%s: Append = %v, want ErrEncode", name, err)
		}
		if s.Len() != 0 {
			t.Errorf("%s: a rejected document was published", name)
		}
	}
}

// TestAppendRefusesCollidingKeysBeforeJournal: the refusal comes before the
// write-ahead point, so neither the store nor the journal sees the document.
func TestAppendRefusesCollidingKeysBeforeJournal(t *testing.T) {
	defer obs.Swap(obs.Swap(obs.NewSet()))
	mem := wal.NewMemFS()
	opts := wal.Options{Dir: "wal", FS: mem, CompactEvery: -1}
	w, _, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	s.AttachWAL(w)
	if _, err := s.Append(0, sampleDoc()); err != nil {
		t.Fatal(err)
	}
	before, err := mem.ReadFile("wal/journal.itwl")
	if err != nil {
		t.Fatal(err)
	}
	day := simtime.Time(0)
	for name, doc := range collidingDocs() {
		day += simtime.Day
		if _, err := s.Append(day, doc); !errors.Is(err, ErrEncode) {
			t.Errorf("%s: Append = %v, want ErrEncode", name, err)
		}
		after, err := mem.ReadFile("wal/journal.itwl")
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != 1 || w.Len() != 1 || !bytes.Equal(after, before) {
			t.Fatalf("%s: refused document left a trace: store %d epochs, WAL %d records, journal %d → %d bytes",
				name, s.Len(), w.Len(), len(before), len(after))
		}
	}
	// The journal still recovers, to the one epoch that was accepted.
	w2, rec, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := RecoverStore(w2, rec); err != nil || got.Len() != 1 {
		t.Fatalf("RecoverStore after refused appends: %v", err)
	}
}

// FuzzEncodeMapDocument pins the other half of the codec's contract: whatever
// document the encoder accepts — here any JSON that unmarshals into one — the
// decoder accepts, and decodes to a document that re-encodes to the same
// bytes. Anything else the encoder must refuse as ErrEncode.
func FuzzEncodeMapDocument(f *testing.F) {
	seeds := []*core.MapDocument{sampleDoc(), {Version: 1}, {Version: math.MaxInt32 + 1}}
	for _, doc := range collidingDocs() {
		seeds = append(seeds, doc)
	}
	for _, doc := range seeds {
		data, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var doc core.MapDocument
		if json.Unmarshal(data, &doc) != nil {
			return
		}
		enc, err := EncodeDocument(&doc)
		if err != nil {
			if !errors.Is(err, ErrEncode) {
				t.Fatalf("untyped encode error: %v", err)
			}
			return
		}
		dec, err := DecodeDocument(enc)
		if err != nil {
			t.Fatalf("the decoder rejects what the encoder emitted: %v", err)
		}
		re, err := EncodeDocument(dec)
		if err != nil || !bytes.Equal(re, enc) {
			t.Fatalf("encode→decode→re-encode not byte-identical: %d vs %d bytes (%v)", len(re), len(enc), err)
		}
	})
}

// TestMeshDecodeRejectsWrappedPairKey: the mesh decoder reads its pair keys
// through deltaSeq now, and keeps refusing a delta that wraps around 2^64 to
// land on a canonical key below its predecessor.
func TestMeshDecodeRejectsWrappedPairKey(t *testing.T) {
	pair := func(delta uint64) []byte {
		b := binary.AppendUvarint(nil, delta)
		b = append(b, 1, 1, 0)              // complete, one probe, none lost
		b = append(b, make([]byte, 4*8)...) // RTTs and confidence
		return append(b, 0)                 // no path
	}
	hdr := append(append([]byte(nil), Magic[:]...), MeshCodecVersion, 1, 8, 2, 0)
	first, second := core.MeshKey(2, 3), core.MeshKey(1, 2)
	ascending := bytes.Join([][]byte{hdr, {2}, pair(second), pair(first - second)}, nil)
	if _, err := DecodeMeshDocument(ascending); err != nil {
		t.Fatalf("the well-formed twin of the wrapped input does not decode: %v", err)
	}
	wrapped := bytes.Join([][]byte{hdr, {2}, pair(first), pair(second - first)}, nil)
	if _, err := DecodeMeshDocument(wrapped); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrapped pair key: err = %v, want ErrCorrupt", err)
	}
}
