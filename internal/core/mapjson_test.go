package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"itmap/internal/topology"
)

// marshalReference is what AppendJSON must reproduce: encoding/json's
// indented bytes and a newline.
func marshalReference(doc *MapDocument) ([]byte, error) {
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}

// checkAppendJSON requires AppendJSON to append the reference's bytes after
// what b already holds.
func checkAppendJSON(t *testing.T, name string, doc *MapDocument) {
	t.Helper()
	want, err := marshalReference(doc)
	if err != nil {
		t.Fatalf("%s: encoding/json refuses the document: %v", name, err)
	}
	got, err := doc.AppendJSON([]byte("prior"))
	if err != nil || !bytes.Equal(got, append([]byte("prior"), want...)) {
		t.Errorf("%s: AppendJSON (%v):\n%s\nencoding/json:\n%s", name, err, got, want)
	}
}

func normalized(doc *MapDocument) *MapDocument {
	doc.Normalize()
	return doc
}

// TestAppendJSONShapes: every shape a field can take — null, empty, omitted,
// filled — comes out as encoding/json writes it.
func TestAppendJSONShapes(t *testing.T) {
	p1, p2 := topology.PrefixID(1<<16|100), topology.PrefixID(1<<16|79)
	for name, doc := range map[string]*MapDocument{
		"zero":                     {},
		"version only, normalized": normalized(&MapDocument{Version: 1}),
		"negative version":         {Version: -3},
		"empty lists":              {ActivePrefixes: []topology.PrefixID{}, Servers: []ServerDocument{}, Mappings: []MappingDocument{}},
		"empty required maps":      {ASActivity: map[topology.ASN]float64{}, Sources: map[topology.ASN]ActivitySource{}},
		"empty hit rates":          {PrefixHitRates: map[topology.PrefixID]float64{}},
		"filled hit rates":         {PrefixHitRates: map[topology.PrefixID]float64{p1: 0.5, p2: 1}},
		"key order": normalized(&MapDocument{
			Version:        1,
			ActivePrefixes: []topology.PrefixID{p1, p2, 0, topology.MaxPrefixID},
			PrefixHitRates: map[topology.PrefixID]float64{p1: 1, p2: 2, 0: 3, topology.MaxPrefixID: 4, 10 << 16: 5, 1 << 16: 6},
			ASActivity:     map[topology.ASN]float64{0: 1, 9: 2, 10: 3, 700: 4, 3000: 5, 3001: 6, 64500: 7, math.MaxUint32: 8},
			Sources:        map[topology.ASN]ActivitySource{700: FromRootLogs, 3000: FromCacheProbe, 31: FromCacheProbe | FromRootLogs, 4: 0},
		}),
		"one of each": normalized(&MapDocument{
			Version:        1,
			ActivePrefixes: []topology.PrefixID{p1},
			Servers:        []ServerDocument{{Prefix: p2, HostAS: 1, OwnerAS: math.MaxUint32, Org: "Org", City: "Oslo", Country: "NO"}},
			Mappings:       []MappingDocument{{Domain: "a.example", ClientAS: 7, Serving: p1}},
		}),
	} {
		checkAppendJSON(t, name, doc)
	}
}

// TestAppendJSONValues: floats on both sides of encoding/json's exponent
// cut-offs, and strings it escapes, spelled as it spells them.
func TestAppendJSONValues(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-7, 9.99e-7, 1e-6, -1e-6, 1.5e-10, 5e-324,
		math.SmallestNonzeroFloat64, 1e20, 999999999999999999999, 1e21, -1e21, 1.2345e300, math.MaxFloat64, 1 << 53, 123456789012,
		// Around the integral fast path's edges.
		2, -2, 1e15 - 1, 1e15, 1e15 + 1, 1<<53 + 2, -(1 << 53)}
	doc := &MapDocument{ASActivity: map[topology.ASN]float64{}, PrefixHitRates: map[topology.PrefixID]float64{}}
	for i, f := range floats {
		doc.ASActivity[topology.ASN(i)] = f
		doc.PrefixHitRates[topology.PrefixID(i)] = -f
	}
	for _, s := range []string{"", "plain", `<a href="x">&</a>`, "a>b", "a&b", `back\slash`, "tab\there", "new\nline", "\x00\x1f\x7f",
		"café", "line\u2028sep\u2029", "bad\xffbyte", "\xc3", "日本"} {
		doc.Servers = append(doc.Servers, ServerDocument{Org: s, City: s, Country: s})
		doc.Mappings = append(doc.Mappings, MappingDocument{Domain: s})
	}
	checkAppendJSON(t, "values", doc)
}

// TestAppendJSONBuiltMaps: a built map's document, every section filled.
func TestAppendJSONBuiltMaps(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		_, m := buildFullMap(t, seed)
		checkAppendJSON(t, "built map", m.Document())
	}
}

// TestAppendJSONRefusesWhatEncodingJSONRefuses: a prefix wider than 24 bits,
// a label outside its enum and a non-finite float are errors wherever they
// sit, and b comes back unchanged.
func TestAppendJSONRefusesWhatEncodingJSONRefuses(t *testing.T) {
	wide := topology.MaxPrefixID + 1
	for name, doc := range map[string]*MapDocument{
		"wide active":       {ActivePrefixes: []topology.PrefixID{1, wide}},
		"wide hit-rate key": {PrefixHitRates: map[topology.PrefixID]float64{1: 1, wide: 1}},
		"wide server":       {Servers: []ServerDocument{{Prefix: wide}}},
		"wide mapping":      {Mappings: []MappingDocument{{Serving: wide}}},
		"source label":      {Sources: map[topology.ASN]ActivitySource{1: ActivitySource(ActivitySources)}},
		"NaN activity":      {ASActivity: map[topology.ASN]float64{1: math.NaN()}},
		"+Inf hit rate":     {PrefixHitRates: map[topology.PrefixID]float64{1: math.Inf(1)}},
		"-Inf activity":     {ASActivity: map[topology.ASN]float64{1: math.Inf(-1)}},
	} {
		if _, err := marshalReference(doc); err == nil {
			t.Fatalf("%s: encoding/json accepts the document", name)
		}
		b := []byte("prior")
		if got, err := doc.AppendJSON(b); err == nil || string(got) != "prior" {
			t.Errorf("%s: AppendJSON = %q, %v; want an error and b unchanged", name, got, err)
		}
	}
}
