package mapstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"itmap/internal/core"
	"itmap/internal/randx"
	"itmap/internal/topology"
)

// importDoc reads a document the way itm-serve reads a snapshot.
func importDoc(js string) *core.MapDocument {
	doc, err := core.ImportDocument(strings.NewReader(js))
	if err != nil {
		panic(err)
	}
	return doc
}

// prefix parses a /24 literal.
func prefix(s string) topology.PrefixID {
	var p topology.PrefixID
	if err := p.UnmarshalText([]byte(s)); err != nil {
		panic(err)
	}
	return p
}

// sampleDoc is a small hand-written document covering every section.
func sampleDoc() *core.MapDocument {
	return importDoc(`{"version": 1,
		"active_prefixes": ["1.0.0.0/24", "1.0.2.0/24", "203.0.113.0/24"],
		"prefix_hit_rates": {"1.0.0.0/24": 0.031, "1.0.2.0/24": 0.07},
		"as_activity": {"64500": 123.5, "64501": 7, "65000": 0.25},
		"sources": {"64500": "cache-probe", "64501": "root-logs", "65000": "cache-probe+root-logs"},
		"servers": [
			{"prefix": "9.9.9.0/24", "host_as": 64500, "owner_as": 64510, "org": "HyperGiant", "city": "Paris", "country": "FR"},
			{"prefix": "9.9.8.0/24", "host_as": 64501, "owner_as": 64510, "org": "HyperGiant", "city": "Lagos", "country": "NG"}],
		"mappings": [
			{"domain": "video.example", "client_as": 64500, "serving_prefix": "9.9.9.0/24"},
			{"domain": "video.example", "client_as": 64501, "serving_prefix": "9.9.8.0/24"},
			{"domain": "cdn.example", "client_as": 64500, "serving_prefix": "9.9.9.0/24"}]}`)
}

func TestCodecRoundTripSample(t *testing.T) {
	doc := sampleDoc()
	enc, err := EncodeDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDocument(enc)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded document is the canonical (normalized) form.
	want := sampleDoc()
	want.Normalize()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded document differs:\ngot  %+v\nwant %+v", got, want)
	}
	re, err := EncodeDocument(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, re) {
		t.Errorf("decode→re-encode changed bytes: %d vs %d", len(enc), len(re))
	}
}

func TestCodecEncodeDeterministic(t *testing.T) {
	a, err := EncodeDocument(sampleDoc())
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeDocument(sampleDoc())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("encoding is not deterministic")
	}
}

func TestCodecEmptyDocument(t *testing.T) {
	doc := &core.MapDocument{Version: 1}
	enc, err := EncodeDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDocument(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 || len(got.ActivePrefixes) != 0 || len(got.Servers) != 0 {
		t.Errorf("empty document mangled: %+v", got)
	}
	re, err := EncodeDocument(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, re) {
		t.Error("empty document round trip not byte-identical")
	}
}

func TestCodecRejectsUnencodableDocuments(t *testing.T) {
	cases := []*core.MapDocument{
		nil,
		{Version: 1, ActivePrefixes: []topology.PrefixID{topology.MaxPrefixID + 1}},
		{Version: 1, ActivePrefixes: []topology.PrefixID{1 << 16, 1 << 16}},
		{Version: 1, ASActivity: map[topology.ASN]float64{1: math.NaN()}},
		{Version: 1, Sources: map[topology.ASN]core.ActivitySource{64500: core.ActivitySource(core.ActivitySources)}},
		{Version: -1},
		{Version: 1, Mappings: []core.MappingDocument{
			{Domain: "a", ClientAS: 1, Serving: 1 << 16},
			{Domain: "a", ClientAS: 1, Serving: 1<<16 | 2<<8},
		}},
	}
	for i, doc := range cases {
		if _, err := EncodeDocument(doc); !errors.Is(err, ErrEncode) {
			t.Errorf("case %d: err = %v, want ErrEncode", i, err)
		}
	}
}

func TestCodecDecodeRejectsBadInput(t *testing.T) {
	enc, err := EncodeDocument(sampleDoc())
	if err != nil {
		t.Fatal(err)
	}

	if _, err := DecodeDocument(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("nil input: %v", err)
	}
	if _, err := DecodeDocument([]byte("JSON")); !errors.Is(err, ErrMagic) {
		t.Errorf("bad magic: %v", err)
	}
	wrongVersion := append([]byte(nil), enc...)
	wrongVersion[4] = 99 // codec version varint
	if _, err := DecodeDocument(wrongVersion); !errors.Is(err, ErrVersion) {
		t.Errorf("bad version: %v", err)
	}
	// Every proper truncation point must fail cleanly (never panic, never
	// succeed: the format has no self-delimiting tail).
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeDocument(enc[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	// Trailing garbage is rejected.
	if _, err := DecodeDocument(append(append([]byte(nil), enc...), 0xff)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: %v", err)
	}
	// An oversized section count must be rejected before allocation.
	huge := append([]byte(nil), Magic[:]...)
	huge = append(huge, 1, 1)                         // codec + doc version
	huge = append(huge, 0)                            // empty string table
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0x7f) // absurd active count
	if _, err := DecodeDocument(huge); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized count: %v", err)
	}
	// A retired section's entries are held to the rules of the section it
	// was: strictly ascending keys within their range, a code the old enum
	// had, a finite float. The decoder drops them only once they pass.
	rec, err := encodeRecord(sampleDoc(), nil)
	if err != nil {
		t.Fatal(err)
	}
	code := func(c byte) func(int) []byte { return func(int) []byte { return []byte{c} } }
	grades, conf := keyedSpan([]uint64{1 << 16, 2 << 16}, code(3)), keyedSpan([]uint64{64500}, float(0.5))
	for name, spans := range map[string][2][]byte{
		"grade keys unsorted":       {keyedSpan([]uint64{2 << 16, 1 << 16}, code(1)), conf},
		"grade keys duplicate":      {keyedSpan([]uint64{1 << 16, 1 << 16}, code(1)), conf},
		"grade code 4":              {keyedSpan([]uint64{1 << 16}, code(4)), conf},
		"grade key above 2^24-1":    {keyedSpan([]uint64{maxPrefixID + 1}, code(1)), conf},
		"confidence keys unsorted":  {grades, keyedSpan([]uint64{64501, 64500}, float(1))},
		"confidence keys duplicate": {grades, keyedSpan([]uint64{64500, 64500}, float(1))},
		"confidence NaN":            {grades, keyedSpan([]uint64{64500}, float(math.NaN()))},
		"confidence +Inf":           {grades, keyedSpan([]uint64{64500}, float(math.Inf(1)))},
		"confidence ASN above 2^32": {grades, keyedSpan([]uint64{math.MaxUint32 + 1}, float(1))},
	} {
		if _, err := DecodeDocument(withRetired(rec, spans[0], spans[1])); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
	got, err := DecodeDocument(withRetired(rec, grades, conf))
	if want, _ := DecodeDocument(rec.bytes); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("well-formed retired entries: %v, or they did not drop", err)
	}
}

// keyedSpan is a keyed wire section holding keys in the order given, each
// written as its distance from the one before and followed by its payload.
func keyedSpan(keys []uint64, payload func(i int) []byte) []byte {
	b := binary.AppendUvarint(nil, uint64(len(keys)))
	var prev uint64
	for i, k := range keys {
		b = append(binary.AppendUvarint(b, k-prev), payload(i)...)
		prev = k
	}
	return b
}

// float is a float payload, the same for every entry.
func float(f float64) func(int) []byte {
	return func(int) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(f)) }
}

// withRetired is rec with its retired sections replaced by the spans grades
// and conf. The later section is spliced first, so the earlier one's
// offsets still hold.
func withRetired(rec encoding, grades, conf []byte) []byte {
	b := slices.Concat(rec.bytes[:rec.off[wireRetiredConfidence]], conf, rec.bytes[rec.off[wireRetiredConfidence+1]:])
	return slices.Concat(b[:rec.off[wireRetiredGrades]], grades, b[rec.off[wireRetiredGrades+1]:])
}

// retiredSpans draws what a journal written before the retirement could
// hold in the two sections: one to four grades and as many confidences,
// on ascending keys.
func retiredSpans(rng *randx.Source) (grades, conf []byte) {
	keys := func(step int) []uint64 {
		ks, k := make([]uint64, 1+rng.Intn(4)), uint64(1<<16)
		for i := range ks {
			k += 1 + uint64(rng.Intn(step))
			ks[i] = k
		}
		return ks
	}
	grades = keyedSpan(keys(1<<12), func(int) []byte { return []byte{byte(rng.Intn(4))} })
	conf = keyedSpan(keys(1<<20), func(int) []byte { return float(rng.Float64())(0) })
	return grades, conf
}

// cutRetired is what the encoder writes for the documents decoded from dec:
// dec's bytes and offsets with each retired section cut to its zero count.
func cutRetired(dec encoding) encoding {
	out := encoding{bytes: slices.Clone(dec.bytes[:dec.off[0]])}
	for i := range dec.off {
		span := dec.off.span(dec.bytes, i)
		if i == wireRetiredGrades || i == wireRetiredConfidence {
			span = []byte{0}
		}
		out.off[i] = len(out.bytes)
		out.bytes = append(out.bytes, span...)
	}
	return out
}

func TestCodecSmallerThanJSON(t *testing.T) {
	doc := sampleDoc()
	enc, err := EncodeDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := doc.Export(&js); err != nil {
		t.Fatal(err)
	}
	if 3*len(enc) > js.Len() {
		t.Errorf("binary %dB not 3x smaller than JSON %dB", len(enc), js.Len())
	}
}

// TestDecodeIsNormalizeFixedPoint pins the property that licenses skipping
// Normalize on adopted bytes: what the decoder returns, Normalize leaves
// deep-equal. The tie case is the one that used to break it — 32 servers
// agreeing on (prefix, host AS, org), which Normalize once sorted by alone,
// unstably, while the codec ordered them by the full tuple.
func TestDecodeIsNormalizeFixedPoint(t *testing.T) {
	tied := sampleDoc()
	for i := 0; i < 32; i++ {
		tied.Servers = append(tied.Servers, core.ServerDocument{
			Prefix: prefix("9.9.7.0/24"), HostAS: 64500, OwnerAS: uint32(64600 - i), Org: "HyperGiant",
			City: []string{"Paris", "Lagos"}[i%2], Country: []string{"FR", "NG"}[i%2],
		})
	}
	for name, doc := range map[string]*core.MapDocument{
		"sample": sampleDoc(), "empty": {Version: 1}, "bench": benchDoc(2000), "tied servers": tied,
	} {
		enc, err := EncodeDocument(doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := DecodeDocument(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := DecodeDocument(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got.Normalize()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Normalize changed a decoded document", name)
		}
		// And Normalize alone reaches the codec's order from any input order.
		doc.Normalize()
		if !reflect.DeepEqual(doc.Servers, want.Servers) && len(want.Servers) > 0 {
			t.Errorf("%s: Normalize and the codec order servers differently", name)
		}
	}
}
