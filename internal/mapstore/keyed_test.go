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
	"itmap/internal/order"
	"itmap/internal/simtime"
	"itmap/internal/topology"
)

// TestKeyedSectionsWellFormed: the table is the wire format's middle — its
// rows are in wire order and cover wireHitRates..wireSources exactly once —
// and every row bounds its keys as a /24 or an ASN and reaches its field.
func TestKeyedSectionsWellFormed(t *testing.T) {
	if len(keyedSections) != wireSources-wireHitRates+1 {
		t.Fatalf("%d rows for wire sections %d..%d", len(keyedSections), wireHitRates, wireSources)
	}
	for i, sec := range keyedSections {
		if sec.wire != wireHitRates+i {
			t.Errorf("row %d (%s) has wire index %d, want %d: rows must follow wire order", i, sec.name, sec.wire, wireHitRates+i)
		}
		if sec.maxKey != maxPrefixID && sec.maxKey != math.MaxUint32 || sec.field.stage == nil {
			t.Errorf("row %s: key bound %d, field set %v", sec.name, sec.maxKey, sec.field.stage != nil)
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
// keyed section × a key, a code or a float the wire cannot carry, a cut at
// every byte, a zero delta, a key and a code out of range, a count the input
// cannot hold — and requires the typed error class: an unencodable document
// is ErrEncode; a cut is ErrTruncated, unless the section's count already
// promises more entries than the bytes left can hold, which is ErrCorrupt;
// every other malformation is ErrCorrupt.
func TestKeyedTableRejectsWhatParentRejected(t *testing.T) {
	for i := range keyedSections {
		sec := &keyedSections[i]

		// Encode side: what the document maps can hold and the wire cannot.
		type pair = order.Ranked[float64] // a payload ranked by its key
		unencodable := map[string]pair{"code out of range": {Rank: 1, Value: float64(sec.codes)}}
		if sec.codes == 0 {
			unencodable = map[string]pair{"NaN": {Rank: 1, Value: math.NaN()}, "+Inf": {Rank: 1, Value: math.Inf(1)}, "-Inf": {Rank: 1, Value: math.Inf(-1)}}
		}
		if sec.maxKey == maxPrefixID {
			unencodable["key out of range"] = pair{Rank: maxPrefixID + 1}
		}
		for name, bad := range unencodable {
			doc := sampleDoc()
			entries := sec.field.stage(doc, new(order.Scratch[float64]))
			set := sec.field.fill(doc, len(entries)+1)
			for _, en := range append(entries, bad) {
				set(uint32(en.Rank), en.Value)
			}
			if _, err := encodeRecord(doc, nil); errClass(err) != "encode" {
				t.Errorf("%s, %s: error class %q, want encode", sec.name, name, errClass(err))
			}
		}

		// Decode side: a valid document with this section's bytes replaced.
		enc, err := encodeRecord(sampleDoc(), nil)
		if err != nil {
			t.Fatal(err)
		}
		payload, minEntry := []byte{1, 2, 3, 4, 5, 6, 7, 8}, 9
		if sec.codes > 0 {
			payload, minEntry = []byte{0}, 2
		}
		entry := func(delta uint64, payload []byte) []byte {
			return append(binary.AppendUvarint(nil, delta), payload...)
		}
		malformed := map[string][]byte{
			"zero delta":       bytes.Join([][]byte{{2}, entry(5, payload), entry(0, payload)}, nil),
			"key out of range": append([]byte{1}, entry(sec.maxKey+1, payload)...),
			"key sum wraps":    bytes.Join([][]byte{{2}, entry(5, payload), entry(math.MaxUint64-2, payload)}, nil),
			"oversized count":  append(binary.AppendUvarint(nil, 1<<40), entry(1, payload)...),
			"overlong varint":  append([]byte{1, 0x81, 0x00}, payload...),
		}
		if sec.codes > 0 {
			malformed["code out of range"] = append([]byte{1}, entry(1, []byte{byte(sec.codes)})...)
		} else {
			malformed["NaN"] = append([]byte{1}, entry(1, binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())))...)
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

// TestAppendStillRejectsMalformedKeys: what a typed document can hold and the
// wire cannot — a duplicate active prefix or mapping key, a prefix ID wider
// than 24 bits, a non-finite float in any float section or mesh field, a bad
// version — is refused by the encoder (ErrEncode) before the write-ahead
// point: neither the store nor the journal sees it, and the journal still
// recovers to the one epoch that was accepted. (Malformed spellings never get
// this far: core.ImportDocument refuses them.)
func TestAppendStillRejectsMalformedKeys(t *testing.T) {
	defer obs.Swap(obs.Swap(obs.NewSet()))
	wide := topology.MaxPrefixID + 1
	cases := map[string]func(*core.MapDocument, *core.MeshDocument){
		"duplicate active prefix":  func(d *core.MapDocument, _ *core.MeshDocument) { d.ActivePrefixes = append(d.ActivePrefixes, 1<<16) },
		"duplicate mapping key":    func(d *core.MapDocument, _ *core.MeshDocument) { d.Mappings = append(d.Mappings, d.Mappings[0]) },
		"active prefix too wide":   func(d *core.MapDocument, _ *core.MeshDocument) { d.ActivePrefixes = append(d.ActivePrefixes, wide) },
		"hit-rate key too wide":    func(d *core.MapDocument, _ *core.MeshDocument) { d.PrefixHitRates[wide] = 0.5 },
		"server prefix too wide":   func(d *core.MapDocument, _ *core.MeshDocument) { d.Servers[0].Prefix = wide },
		"serving prefix too wide":  func(d *core.MapDocument, _ *core.MeshDocument) { d.Mappings[0].Serving = wide },
		"NaN activity":             func(d *core.MapDocument, _ *core.MeshDocument) { d.ASActivity[64500] = math.NaN() },
		"-Inf hit rate":            func(d *core.MapDocument, _ *core.MeshDocument) { d.PrefixHitRates[1<<16] = math.Inf(-1) },
		"NaN mesh RTT":             func(_ *core.MapDocument, m *core.MeshDocument) { m.Pairs[0].MeanRTT = math.NaN() },
		"+Inf mesh confidence":     func(_ *core.MapDocument, m *core.MeshDocument) { m.Pairs[0].Confidence = math.Inf(1) },
		"negative version":         func(d *core.MapDocument, _ *core.MeshDocument) { d.Version = -1 },
		"version beyond the codec": func(d *core.MapDocument, _ *core.MeshDocument) { d.Version = math.MaxInt32 + 1 },
	}
	mem := wal.NewMemFS()
	opts := wal.Options{Dir: "wal", FS: mem}
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
	for name, spoil := range cases {
		day += simtime.Day
		doc, mesh := sampleDoc(), sampleMesh()
		spoil(doc, mesh)
		if _, err := s.append(day, ingest{doc: doc, mesh: mesh}); !errors.Is(err, ErrEncode) {
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
	w2, rec, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := RecoverStore(w2, rec); err != nil || got.Len() != 1 {
		t.Fatalf("RecoverStore after refused appends: %v", err)
	}
}

// collidingJSON spells a key of each keyed section twice, canonically and
// with leading zeros: one key to the importer, the last spelling winning.
var collidingJSON = []string{
	`{"version": 1, "prefix_hit_rates": {"1.0.0.0/24": 0.5, "01.0.0.0/24": 0.25}}`,
	`{"version": 1, "as_activity": {"64500": 1, "064500": 2}}`,
	`{"version": 1, "sources": {"64500": "root-logs", "064500": "cache-probe"}}`,
}

// FuzzEncodeMapDocument pins the other half of the codec's contract: whatever
// document the encoder accepts — here any JSON that unmarshals into one — the
// decoder accepts, and decodes to a document that re-encodes to the same
// bytes. Anything else the encoder must refuse as ErrEncode.
func FuzzEncodeMapDocument(f *testing.F) {
	dupActive, dupMapping := sampleDoc(), sampleDoc()
	dupActive.ActivePrefixes = append(dupActive.ActivePrefixes, dupActive.ActivePrefixes[0])
	dupMapping.Mappings = append(dupMapping.Mappings, dupMapping.Mappings[0])
	for _, doc := range []*core.MapDocument{sampleDoc(), {Version: 1}, {Version: math.MaxInt32 + 1}, dupActive, dupMapping} {
		data, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, js := range collidingJSON {
		f.Add([]byte(js))
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

// FuzzImportDocument pins the JSON trust boundary: whatever ImportDocument
// accepts exports to JSON that imports back to a document exporting the same
// bytes, and the store then appends it or refuses it as ErrEncode. Both as
// imported and as exported, AppendJSON writes the document as encoding/json
// does.
func FuzzImportDocument(f *testing.F) {
	var sample bytes.Buffer
	if err := sampleDoc().Export(&sample); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.Bytes())
	for _, js := range append(collidingJSON,
		`{"version": 1, "active_prefixes": ["01.0.0.0/24", "1.0.0.0/24"], "servers": [], "mappings": []}`,
		`{"version": 1, "as_activity": {"AS64500": 1}}`,
		`{"version": 1, "active_prefixes": ["10.0.0.0/8"]}`,
		`{"version": 1, "mappings": [{"domain": "a", "client_as": 1, "serving_prefix": "1.0.0.1/24"}]}`,
		`{"version": 1, "sources": {"64500": "hearsay"}}`,
		`{"version": 1, "active_prefixes": [], "prefix_hit_rates": {}, "servers": []}`,
		`{"version": 1, "as_activity": {"1": 1e-7, "2": 9.99e-7, "3": 1e-6, "4": 1e21, "5": 5e-324, "6": 1e20, "10": -0}}`,
		`{"version": 1, "servers": [{"prefix": "1.0.100.0/24", "org": "<a&b>\"q\"\\", "city": "\t\u00e9\u2028\ud800", "country": "\u00ff"}]}`,
		`{"version": 1, "active_prefixes": ["1.0.0.0/24", "1.0.0.0/24"]}`,
		`{"version": 2147483648}`,
		`{"version": 1, "unknown": {"1.0.0.0/24": "stale"}, "as_activity": {"64500": 1}}`,
	) {
		f.Add([]byte(js))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := core.ImportDocument(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkAppendJSON(t, "imported", doc)
		var first, second bytes.Buffer
		if err := doc.Export(&first); err != nil {
			t.Fatalf("an imported document does not export: %v", err)
		}
		checkAppendJSON(t, "exported", doc)
		again, err := core.ImportDocument(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("the export does not import: %v", err)
		}
		if err := again.Export(&second); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("export→import→export not byte-identical: %d vs %d bytes (%v)", first.Len(), second.Len(), err)
		}
		if _, err := NewStore().Append(0, doc); err != nil && !errors.Is(err, ErrEncode) {
			t.Fatalf("Append of an imported document = %v, want success or ErrEncode", err)
		}
	})
}

// checkAppendJSON requires AppendJSON to write doc as encoding/json does.
func checkAppendJSON(t *testing.T, stage string, doc *core.MapDocument) {
	t.Helper()
	want, err := json.MarshalIndent(doc, "", "  ")
	got, gotErr := doc.AppendJSON(nil)
	if err != nil || gotErr != nil || !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("%s: AppendJSON (%v) differs from encoding/json (%v):\n%s\nwant:\n%s\n", stage, gotErr, err, got, want)
	}
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
