package mapstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
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

// oracleDocs are the documents both codecs are driven over: the empty ones,
// optional sections absent and present, every label code, the extreme keys
// of both key spaces, and two seeded histories whose consecutive days share
// anything from no section to all of them.
func oracleDocs() [][]*core.MapDocument {
	bare := sampleDoc()
	bare.Coverage, bare.ASConfidence = nil, nil
	labels := sampleDoc()
	labels.Sources, labels.Coverage = map[string]string{}, map[string]string{}
	for i, l := range sourceCodes {
		labels.Sources[string(rune('1'+i))] = l
	}
	for i, l := range coverageCodes {
		labels.Coverage[string(rune('1'+i))+".0.0.0/24"] = l
	}
	extremes := sampleDoc()
	for _, asn := range []string{"0", "4294967295"} {
		extremes.ASActivity[asn], extremes.Sources[asn], extremes.ASConfidence[asn] = 1, "root-logs", 0.5
	}
	for _, p := range []string{"0.0.0.0/24", "255.255.255.0/24"} {
		extremes.ActivePrefixes = append(extremes.ActivePrefixes, p)
		extremes.PrefixHitRates[p], extremes.Coverage[p] = 0.5, "gave-up"
	}
	return [][]*core.MapDocument{
		{{}, {Version: 1}, sampleDoc(), bare, sampleDoc(), labels, extremes, extremes},
		seededDocs(1, 12),
		seededDocs(7, 12),
	}
}

// TestKeyedTableMatchesParentCodec: the table-driven codec and the parent's
// hand-written one agree on every byte, offset and decoded value, and the
// store shares the same sections of consecutive epochs either way.
func TestKeyedTableMatchesParentCodec(t *testing.T) {
	var sawShared, sawCopied uint
	for si, seq := range oracleDocs() {
		for d, doc := range seq {
			doc = cloneDoc(doc)
			doc.Normalize()
			got, err := encodeDocument(doc)
			if err != nil {
				t.Fatalf("sequence %d, doc %d: %v", si, d, err)
			}
			want, err := refEncodeDocument(doc)
			if err != nil {
				t.Fatalf("sequence %d, doc %d: parent encoder: %v", si, d, err)
			}
			if !bytes.Equal(got.bytes, want.bytes) || got.off != want.off || !reflect.DeepEqual(got.actives, want.actives) {
				t.Fatalf("sequence %d, doc %d: encodings differ (%d vs %d bytes, offsets %v vs %v)",
					si, d, len(got.bytes), len(want.bytes), got.off, want.off)
			}
			gotDoc, gotEnc, err := decodeDocument(got.bytes)
			if err != nil {
				t.Fatalf("sequence %d, doc %d: %v", si, d, err)
			}
			wantDoc, wantEnc := &core.MapDocument{}, encoding{bytes: want.bytes}
			if err := refDecodeInto(wantDoc, &wantEnc, nil); err != nil {
				t.Fatalf("sequence %d, doc %d: parent decoder: %v", si, d, err)
			}
			if !reflect.DeepEqual(gotDoc, wantDoc) || gotEnc.off != wantEnc.off || !reflect.DeepEqual(gotEnc.actives, wantEnc.actives) {
				t.Fatalf("sequence %d, doc %d: decodes differ", si, d)
			}
			if d == 0 {
				continue
			}
			e, prev := encodedEpoch(t, cloneDoc(seq[d])), encodedEpoch(t, cloneDoc(seq[d-1]))
			re, rprev := encodedEpoch(t, cloneDoc(seq[d])), encodedEpoch(t, cloneDoc(seq[d-1]))
			mask, rmask := shareSections(e, prev), refShareSections(re, rprev)
			if mask != rmask || !reflect.DeepEqual(e.Doc, re.Doc) {
				t.Errorf("sequence %d, day %d: shared sections %08b, parent %08b", si, d, mask, rmask)
			}
			// Shared means aliased, not copied: a write through the previous
			// epoch's map shows in this one's.
			for i := range keyedSections {
				sec := &keyedSections[i]
				if mask&(1<<(sec.wire-wireActives)) == 0 {
					continue
				}
				if sec.floats != nil && len(*sec.floats(prev.Doc)) > 0 {
					(*sec.floats(prev.Doc))["alias-probe"] = 1
					if _, ok := (*sec.floats(e.Doc))["alias-probe"]; !ok {
						t.Errorf("sequence %d, day %d: shared section %s was copied, not aliased", si, d, sec.name)
					}
				}
			}
			sawShared |= mask
			sawCopied |= ^mask & secAll
		}
	}
	if sawShared != secAll || sawCopied != secAll {
		t.Errorf("documents too tame: sections seen shared %08b, seen copied %08b, want all of both", sawShared, sawCopied)
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
// requires the typed error class the parent's hand-written code gave.
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
			_, err := encodeDocument(doc)
			_, rerr := refEncodeDocument(doc)
			if got, want := errClass(err), errClass(rerr); got != want || got != "encode" {
				t.Errorf("%s, %s: error class %q, parent %q, want encode", sec.name, name, got, want)
			}
		}

		// Decode side: a valid document with this section's bytes replaced.
		enc, err := encodeDocument(sampleDoc())
		if err != nil {
			t.Fatal(err)
		}
		payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		if sec.codes != nil {
			payload = []byte{0}
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
		inputs := map[string][]byte{}
		for name, section := range malformed {
			inputs[name] = bytes.Join([][]byte{enc.bytes[:enc.off[sec.wire]], section, enc.bytes[enc.off[sec.wire+1]:]}, nil)
		}
		for cut := enc.off[sec.wire]; cut < enc.off[sec.wire+1]; cut++ {
			inputs[fmt.Sprintf("cut %d bytes in", cut-enc.off[sec.wire])] = enc.bytes[:cut]
		}
		for name, data := range inputs {
			_, _, err := decodeDocument(data)
			rerr := refDecodeInto(&core.MapDocument{}, &encoding{bytes: data}, nil)
			if got, want := errClass(err), errClass(rerr); got != want || got == "" {
				t.Errorf("%s, %s: error class %q, parent %q", sec.name, name, got, want)
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
// typed form are unencodable. The parent encoded them — as a key delta of
// zero, which its own decoder then refused — so a journal could hold a record
// recovery could not read.
func TestEncodeRejectsCollidingKeys(t *testing.T) {
	docs := collidingDocs()
	if len(docs) != len(keyedSections) {
		t.Fatalf("%d colliding documents for %d sections", len(docs), len(keyedSections))
	}
	for name, doc := range docs {
		if _, err := EncodeDocument(doc); !errors.Is(err, ErrEncode) {
			t.Errorf("%s: colliding keys encoded: err = %v, want ErrEncode", name, err)
		}
		parent, err := refEncodeDocument(doc)
		if err != nil {
			t.Errorf("%s: the parent encoder refused the document (%v): the collision is not what this test thinks", name, err)
			continue
		}
		if _, err := DecodeDocument(parent.bytes); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decoding the parent's encoding: err = %v, want ErrCorrupt", name, err)
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
