package core

import (
	"bytes"
	"reflect"
	"slices"
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
	if len(doc.Servers) != len(m.Scan.Servers) {
		t.Errorf("servers %d vs %d", len(doc.Servers), len(m.Scan.Servers))
	}
	if !reflect.DeepEqual(doc, m.Document()) {
		t.Fatal("the document changed in the round trip")
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
		"servers: bad prefix":          `{"version": 1, "servers": [{"prefix": "9.9.9.9"}]}`,
		"mappings: bad serving prefix": `{"version": 1, "mappings": [{"domain": "a", "client_as": 1, "serving_prefix": "nowhere"}]}`,
	} {
		if _, err := ImportDocument(strings.NewReader(js)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The retired coverage and as_confidence keys are ignored, as any key
	// the document does not define, however malformed their contents.
	const plain = `{"version": 1, "as_activity": {"7": 1}`
	retired, err := ImportDocument(strings.NewReader(plain + `, "coverage": {"1.0.0.1/24": "stale", "1.0.0.0/24": "somewhat"},
		"as_confidence": {"64500 ": 1, "99999999999": 1}}`))
	want, wantErr := ImportDocument(strings.NewReader(plain + "}"))
	if err != nil || wantErr != nil || !reflect.DeepEqual(retired, want) {
		t.Errorf("a document with the retired keys imports as %+v (%v), without them as %+v (%v)", retired, err, want, wantErr)
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

// TestExportImportExportByteIdentical pins the normalization contract on
// BuildMap's output: its document is already canonical — Normalize changes
// nothing, so handing it to the store is a no-op normalize — and export →
// import → re-export is byte-identical.
func TestExportImportExportByteIdentical(t *testing.T) {
	for _, seed := range []int64{1, 7, 24} {
		_, m := buildFullMap(t, seed)
		// Normalize sorts the lists in place: the copy gets its own.
		norm := m.MapDocument
		norm.ActivePrefixes = slices.Clone(norm.ActivePrefixes)
		norm.Servers = slices.Clone(norm.Servers)
		norm.Mappings = slices.Clone(norm.Mappings)
		if norm.Normalize(); !reflect.DeepEqual(&norm, m.Document()) {
			t.Errorf("seed %d: BuildMap's document is not a Normalize fixed point", seed)
		}
		var first, second bytes.Buffer
		if err := m.Export(&first); err != nil {
			t.Fatal(err)
		}
		doc, err := ImportDocument(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := doc.Export(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("seed %d: export→import→export changed bytes: %d then %d", seed, first.Len(), second.Len())
		}
	}
}

// TestNormalizeCanonicalizesDocuments covers the normalization rules
// directly: maps come up non-nil, and slices sort numerically by prefix (not
// lexically).
func TestNormalizeCanonicalizesDocuments(t *testing.T) {
	doc := &MapDocument{
		Version:        1,
		ActivePrefixes: []topology.PrefixID{10 << 16, 2 << 16},
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
	if doc.PrefixHitRates == nil || doc.ASActivity == nil || doc.Sources == nil {
		t.Error("maps should normalize to non-nil")
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
