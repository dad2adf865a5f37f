package core

import (
	"bytes"
	"maps"
	"strings"
	"testing"

	"itmap/internal/topology"
)

func TestExportImportRoundTrip(t *testing.T) {
	_, m := buildFullMap(t, 21)
	var buf bytes.Buffer
	if err := m.Export(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := ImportDocument(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.ActivePrefixes) != len(m.Users.ActivePrefixes) {
		t.Errorf("active prefixes %d vs %d", len(doc.ActivePrefixes), len(m.Users.ActivePrefixes))
	}
	if len(doc.Servers) != len(m.Services.Scan.Servers) {
		t.Errorf("servers %d vs %d", len(doc.Servers), len(m.Services.Scan.Servers))
	}
	if len(doc.Mappings) != len(m.Services.Mapping) {
		t.Errorf("mappings %d vs %d", len(doc.Mappings), len(m.Services.Mapping))
	}

	for _, p := range doc.ActivePrefixes {
		if !m.Users.ActivePrefixes[p] {
			t.Fatalf("active prefix %v after round trip is not in the map", p)
		}
	}
	if !maps.Equal(doc.ASActivity, m.Users.ASActivity) || !maps.Equal(doc.Sources, m.Users.Sources) {
		t.Fatal("activity or sources changed in the round trip")
	}
}

func TestExportDeterministic(t *testing.T) {
	_, m := buildFullMap(t, 22)
	var a, b bytes.Buffer
	if err := m.Export(&a); err != nil {
		t.Fatal(err)
	}
	if err := m.Export(&b); err != nil {
		t.Fatal(err)
	}
	// ASActivity/Sources are JSON maps (key-sorted by encoding/json), and
	// slices are explicitly sorted, so output is byte-identical.
	if a.String() != b.String() {
		t.Error("export is not deterministic")
	}
}

// TestImportRejectsBadInput: the import is the JSON trust boundary, so every
// malformed key, prefix or label of every section is refused there.
func TestImportRejectsBadInput(t *testing.T) {
	for name, js := range map[string]string{
		"garbage":                      "not json",
		"future version":               `{"version": 99}`,
		"actives: bad prefix":          `{"version": 1, "active_prefixes": ["zzz"]}`,
		"actives: not a /24":           `{"version": 1, "active_prefixes": ["10.0.0.0/8"]}`,
		"actives: octet out of range":  `{"version": 1, "active_prefixes": ["1.0.256.0/24"]}`,
		"actives: not a string":        `{"version": 1, "active_prefixes": [65536]}`,
		"hit rates: bad prefix":        `{"version": 1, "prefix_hit_rates": {"1.0.0/24": 0.5}}`,
		"hit rates: trailing garbage":  `{"version": 1, "prefix_hit_rates": {"1.0.0.0/24x": 0.5}}`,
		"activity: bad ASN":            `{"version": 1, "as_activity": {"AS64500": 1}}`,
		"activity: ASN over 32 bits":   `{"version": 1, "as_activity": {"4294967296": 1}}`,
		"activity: empty ASN":          `{"version": 1, "as_activity": {"": 1}}`,
		"sources: bad ASN":             `{"version": 1, "sources": {"-1": "root-logs"}}`,
		"sources: unknown label":       `{"version": 1, "sources": {"64500": "hearsay"}}`,
		"coverage: bad prefix":         `{"version": 1, "coverage": {"1.0.0.1/24": "stale"}}`,
		"coverage: unknown label":      `{"version": 1, "coverage": {"1.0.0.0/24": "somewhat"}}`,
		"confidence: bad ASN":          `{"version": 1, "as_confidence": {"64500 ": 1}}`,
		"confidence: ASN over 32 bits": `{"version": 1, "as_confidence": {"99999999999": 1}}`,
		"servers: bad prefix":          `{"version": 1, "servers": [{"prefix": "9.9.9.9"}]}`,
		"mappings: bad serving prefix": `{"version": 1, "mappings": [{"domain": "a", "client_as": 1, "serving_prefix": "nowhere"}]}`,
	} {
		if _, err := ImportDocument(strings.NewReader(js)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestImportCanonicalizesSpellings: leading zeros name the key they pad, so
// two spellings of one key are one key — the one listed last wins, as with
// any key JSON repeats — and the export spells it canonically.
func TestImportCanonicalizesSpellings(t *testing.T) {
	doc, err := ImportDocument(strings.NewReader(`{"version": 1, "active_prefixes": ["01.002.3.0/24"],
		"as_activity": {"7": 1, "07": 2}, "sources": {"064500": "root-logs"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if doc.ActivePrefixes[0].String() != "1.2.3.0/24" || len(doc.ASActivity) != 1 || doc.ASActivity[7] != 2 || doc.Sources[64500] != FromRootLogs {
		t.Errorf("imported %+v", doc)
	}
}

// TestExportImportExportByteIdentical pins the normalization contract:
// export → import → re-export is byte-identical, including for maps whose
// Coverage/ASConfidence are empty but non-nil (the shape BuildMap produces
// without sweep stats — before Normalize, re-exporting an imported document
// could disagree with the original on which empty sections appear).
func TestExportImportExportByteIdentical(t *testing.T) {
	_, m := buildFullMap(t, 24)
	if m.Users.Coverage == nil || len(m.Users.Coverage) != 0 {
		t.Fatalf("fixture should have empty-but-non-nil coverage, got %v", m.Users.Coverage)
	}
	if m.Users.ASConfidence == nil || len(m.Users.ASConfidence) != 0 {
		t.Fatalf("fixture should have empty-but-non-nil confidence, got %v", m.Users.ASConfidence)
	}
	var first bytes.Buffer
	if err := m.Export(&first); err != nil {
		t.Fatal(err)
	}
	doc, err := ImportDocument(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := doc.Export(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("export→import→export changed bytes:\nfirst %d bytes, second %d bytes", first.Len(), second.Len())
	}
}

// TestNormalizeCanonicalizesDocuments covers the normalization rules
// directly: empty optional maps go nil, required maps come up non-nil, and
// slices sort numerically by prefix (not lexically).
func TestNormalizeCanonicalizesDocuments(t *testing.T) {
	doc := &MapDocument{
		Version:        1,
		ActivePrefixes: []topology.PrefixID{10 << 16, 2 << 16},
		Coverage:       map[topology.PrefixID]Coverage{},
		ASConfidence:   map[topology.ASN]float64{},
		Servers: []ServerDocument{
			{Prefix: 9<<16 | 9<<8 | 9, HostAS: 2},
			{Prefix: 1<<16 | 1<<8 | 1, HostAS: 1},
		},
		Mappings: []MappingDocument{
			{Domain: "b.example", ClientAS: 1, Serving: 1 << 16},
			{Domain: "a.example", ClientAS: 9, Serving: 1 << 16},
			{Domain: "a.example", ClientAS: 2, Serving: 1 << 16},
		},
	}
	doc.Normalize()
	if doc.Coverage != nil || doc.ASConfidence != nil {
		t.Error("empty optional maps should normalize to nil")
	}
	if doc.PrefixHitRates == nil || doc.ASActivity == nil || doc.Sources == nil {
		t.Error("required maps should normalize to non-nil")
	}
	if doc.ActivePrefixes[0] != 2<<16 {
		t.Errorf("prefixes not numerically sorted: %v", doc.ActivePrefixes)
	}
	if doc.Servers[0].Prefix != 1<<16|1<<8|1 {
		t.Errorf("servers not sorted: %+v", doc.Servers)
	}
	if doc.Mappings[0].Domain != "a.example" || doc.Mappings[0].ClientAS != 2 {
		t.Errorf("mappings not sorted: %+v", doc.Mappings)
	}
	// An empty list is nil, as the codec decodes it: null, before a crash and after.
	empty := &MapDocument{ActivePrefixes: []topology.PrefixID{}, Servers: []ServerDocument{}, Mappings: []MappingDocument{}}
	if empty.Normalize(); empty.ActivePrefixes != nil || empty.Servers != nil || empty.Mappings != nil {
		t.Errorf("empty lists should normalize to nil: %+v", empty)
	}
	var a, b bytes.Buffer
	if err := doc.Export(&a); err != nil {
		t.Fatal(err)
	}
	if err := doc.Export(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("document export is not deterministic")
	}
}
