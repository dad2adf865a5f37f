package mapstore

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"itmap/internal/core"
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
	rec, err := encodeRecord(sampleDoc(), nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := rec.bytes
	wrongVersion := append([]byte(nil), enc...)
	wrongVersion[4] = 99 // codec version varint
	// An oversized section count must be rejected before allocation.
	huge := append([]byte(nil), Magic[:]...)
	huge = append(huge, CodecVersion, 1)              // codec + doc version
	huge = append(huge, 0)                            // empty string table
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0x7f) // absurd active count
	for _, tc := range []struct {
		name  string
		input []byte
		want  error
	}{
		{"nil input", nil, ErrTruncated},
		{"bad magic", []byte("JSON"), ErrMagic},
		{"bad version", wrongVersion, ErrVersion},
		{"version 1 map", versionOne(rec), ErrVersion},
		{"trailing byte", append(slices.Clone(enc), 0xff), ErrCorrupt},
		{"oversized count", huge, ErrCorrupt},
	} {
		if _, err := DecodeDocument(tc.input); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
	// Every proper truncation point must fail cleanly (never panic, never
	// succeed: the format has no self-delimiting tail).
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeDocument(enc[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
}

// versionOne is rec's map as codec version 1 wrote it: version byte 1, and
// the two keyed sections version 3 dropped, empty, ahead of the servers.
func versionOne(rec encoding) []byte {
	servers, end := rec.off[wireServers], rec.off[wireMesh]
	v1 := slices.Concat(rec.bytes[:servers], []byte{0, 0}, rec.bytes[servers:end])
	v1[len(Magic)] = 1
	return v1
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
