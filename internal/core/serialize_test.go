package core

import (
	"bytes"
	"strings"
	"testing"
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

	for _, s := range doc.ActivePrefixes {
		if p, err := ParsePrefix(s); err != nil || !m.Users.ActivePrefixes[p] {
			t.Fatalf("active prefix %q after round trip: %v, in map %v", s, err, m.Users.ActivePrefixes[p])
		}
	}
	for asn, act := range m.Users.ASActivity {
		if got := doc.ASActivity[asnKey(asn)]; got != act {
			t.Fatalf("activity for AS %d: %f vs %f", asn, got, act)
		}
	}
	for asn, src := range m.Users.Sources {
		if doc.Sources[asnKey(asn)] != sourceString(src) {
			t.Fatalf("source for AS %d lost", asn)
		}
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

func TestImportRejectsBadInput(t *testing.T) {
	if _, err := ImportDocument(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ImportDocument(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("future version accepted")
	}
	if _, err := ParsePrefix("zzz"); err == nil {
		t.Error("bad prefix accepted")
	}
	if _, err := ParsePrefix("10.0.0.0/8"); err == nil {
		t.Error("non-/24 prefix accepted")
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
		ActivePrefixes: []string{"10.0.0.0/24", "2.0.0.0/24"},
		Coverage:       map[string]string{},
		ASConfidence:   map[string]float64{},
		Servers: []ServerDocument{
			{Prefix: "9.9.9.0/24", HostAS: 2},
			{Prefix: "1.1.1.0/24", HostAS: 1},
		},
		Mappings: []MappingDocument{
			{Domain: "b.example", ClientAS: 1, Serving: "1.1.1.0/24"},
			{Domain: "a.example", ClientAS: 9, Serving: "1.1.1.0/24"},
			{Domain: "a.example", ClientAS: 2, Serving: "1.1.1.0/24"},
		},
	}
	doc.Normalize()
	if doc.Coverage != nil || doc.ASConfidence != nil {
		t.Error("empty optional maps should normalize to nil")
	}
	if doc.PrefixHitRates == nil || doc.ASActivity == nil || doc.Sources == nil {
		t.Error("required maps should normalize to non-nil")
	}
	if doc.ActivePrefixes[0] != "2.0.0.0/24" {
		t.Errorf("prefixes not numerically sorted: %v", doc.ActivePrefixes)
	}
	if doc.Servers[0].Prefix != "1.1.1.0/24" {
		t.Errorf("servers not sorted: %+v", doc.Servers)
	}
	if doc.Mappings[0].Domain != "a.example" || doc.Mappings[0].ClientAS != 2 {
		t.Errorf("mappings not sorted: %+v", doc.Mappings)
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

func TestParsePrefixRejectsOutOfRangeOctets(t *testing.T) {
	for _, s := range []string{"300.0.0.0/24", "1.256.0.0/24", "-1.2.3.0/24"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) accepted an out-of-range octet", s)
		}
	}
	p, err := ParsePrefix("203.0.113.0/24")
	if err != nil || p.String() != "203.0.113.0/24" {
		t.Errorf("ParsePrefix(203.0.113.0/24) = %v, %v", p, err)
	}
}

func TestParsePrefixRoundTrip(t *testing.T) {
	_, m := buildFullMap(t, 23)
	for p := range m.Users.ActivePrefixes {
		got, err := parsePrefix(p.String())
		if err != nil || got != p {
			t.Fatalf("parsePrefix(%q) = %v, %v", p.String(), got, err)
		}
		break
	}
}
