package mapstore

import (
	"bytes"
	"errors"
	"reflect"
	"strconv"
	"testing"

	"itmap/internal/core"
	"itmap/internal/topology"
)

// sampleDoc builds a small hand-written document covering every section.
func sampleDoc() *core.MapDocument {
	return &core.MapDocument{
		Version:        1,
		ActivePrefixes: []string{"1.0.0.0/24", "1.0.2.0/24", "203.0.113.0/24"},
		PrefixHitRates: map[string]float64{"1.0.0.0/24": 0.031, "1.0.2.0/24": 0.07},
		ASActivity:     map[string]float64{"64500": 123.5, "64501": 7, "65000": 0.25},
		Sources: map[string]string{
			"64500": "cache-probe",
			"64501": "root-logs",
			"65000": "cache-probe+root-logs",
		},
		Coverage:     map[string]string{"1.0.0.0/24": "probed-ok", "1.0.2.0/24": "stale"},
		ASConfidence: map[string]float64{"64500": 1, "64501": 0.5},
		Servers: []core.ServerDocument{
			{Prefix: "9.9.9.0/24", HostAS: 64500, OwnerAS: 64510, Org: "HyperGiant", City: "Paris", Country: "FR"},
			{Prefix: "9.9.8.0/24", HostAS: 64501, OwnerAS: 64510, Org: "HyperGiant", City: "Lagos", Country: "NG"},
		},
		Mappings: []core.MappingDocument{
			{Domain: "video.example", ClientAS: 64500, Serving: "9.9.9.0/24"},
			{Domain: "video.example", ClientAS: 64501, Serving: "9.9.8.0/24"},
			{Domain: "cdn.example", ClientAS: 64500, Serving: "9.9.9.0/24"},
		},
	}
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
	if got.Coverage != nil || got.ASConfidence != nil {
		t.Error("empty optional sections should decode to nil maps")
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
		{Version: 1, ActivePrefixes: []string{"not-a-prefix"}},
		{Version: 1, ActivePrefixes: []string{"1.0.0.0/24", "1.0.0.0/24"}},
		{Version: 1, ASActivity: map[string]float64{"not-a-number": 1}},
		{Version: 1, Sources: map[string]string{"64500": "carrier-pigeon"}},
		{Version: 1, Coverage: map[string]string{"1.0.0.0/24": "mystery"}},
		{Version: -1},
		{Version: 1, Mappings: []core.MappingDocument{
			{Domain: "a", ClientAS: 1, Serving: "1.0.0.0/24"},
			{Domain: "a", ClientAS: 1, Serving: "1.0.2.0/24"},
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
	if len(enc) >= js.Len() {
		t.Errorf("binary %dB not smaller than JSON %dB", len(enc), js.Len())
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
			Prefix: "9.9.7.0/24", HostAS: 64500, OwnerAS: uint32(64600 - i), Org: "HyperGiant",
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

// TestKeyArenaMatchesStdlib holds the arena-backed keys to the stdlib
// renderings they stand in for, at the digit-count edges. The arena is
// sized for a tiny input, so it rolls over to a fresh chunk every key or
// two, and the keys are read back only at the end: a rollover must leave
// the keys already cut intact.
func TestKeyArenaMatchesStdlib(t *testing.T) {
	keys := newKeyArena(0)
	var got, want []string
	for _, p := range []uint64{0, 9, 10, 99, 100, 255, 256, 1 << 16, maxPrefixID} {
		got, want = append(got, keys.prefix(p)), append(want, topology.PrefixID(p).String())
	}
	for _, v := range []uint64{0, 9, 10, 64500, 99999, 100000, 1<<32 - 1} {
		got, want = append(got, keys.asn(v)), append(want, strconv.FormatUint(v, 10))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("arena keys %q, want %q", got, want)
	}
}
