package core

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"itmap/internal/order"
	"itmap/internal/topology"
)

// The JSON schema for a published traffic map. Maps are the artifact the
// paper wants the community to share ("we hope the research community both
// uses and encourages others to use the Internet traffic map"), so the
// export carries only measured estimates — never simulator ground truth.

// MapDocument is the serialized form of a TrafficMap.
type MapDocument struct {
	Version int `json:"version"`
	// Users component.
	ActivePrefixes []string           `json:"active_prefixes"`
	PrefixHitRates map[string]float64 `json:"prefix_hit_rates,omitempty"`
	ASActivity     map[string]float64 `json:"as_activity"`
	Sources        map[string]string  `json:"sources"`
	// Coverage/ASConfidence only appear for maps built from a resilient
	// sweep's stats — fault-free documents stay byte-identical to v1
	// exports thanks to omitempty.
	Coverage     map[string]string  `json:"coverage,omitempty"`
	ASConfidence map[string]float64 `json:"as_confidence,omitempty"`
	// Services component.
	Servers  []ServerDocument  `json:"servers"`
	Mappings []MappingDocument `json:"mappings"`
}

// ServerDocument is one discovered serving prefix.
type ServerDocument struct {
	Prefix  string `json:"prefix"`
	HostAS  uint32 `json:"host_as"`
	OwnerAS uint32 `json:"owner_as"`
	Org     string `json:"org"`
	City    string `json:"city"`
	Country string `json:"country"`
}

// MappingDocument is one measured user→host mapping entry.
type MappingDocument struct {
	Domain   string `json:"domain"`
	ClientAS uint32 `json:"client_as"`
	Serving  string `json:"serving_prefix"`
}

const mapDocVersion = 1

// Document builds the serialized form of the map's measured components.
// The result is already normalized (see Normalize), so exporting it is
// deterministic.
func (m *TrafficMap) Document() *MapDocument {
	u := &m.Users
	doc := &MapDocument{
		Version:        mapDocVersion,
		PrefixHitRates: make(map[string]float64, len(u.PrefixHitRate)),
		ASActivity:     make(map[string]float64, len(u.ASActivity)),
		Sources:        make(map[string]string, len(u.Sources)),
	}
	// Grow, not make: an empty list stays nil and exports as null.
	doc.ActivePrefixes = slices.Grow(doc.ActivePrefixes, len(u.ActivePrefixes))
	for _, p := range order.Keys(u.ActivePrefixes) {
		doc.ActivePrefixes = append(doc.ActivePrefixes, p.String())
	}
	for p, hr := range u.PrefixHitRate {
		if hr > 0 {
			doc.PrefixHitRates[p.String()] = hr
		}
	}
	for asn, act := range u.ASActivity {
		doc.ASActivity[asnKey(asn)] = act
	}
	for asn, src := range u.Sources {
		doc.Sources[asnKey(asn)] = sourceString(src)
	}
	if len(u.Coverage) > 0 {
		doc.Coverage = make(map[string]string, len(u.Coverage))
		for p, c := range u.Coverage {
			doc.Coverage[p.String()] = c.String()
		}
	}
	if len(u.ASConfidence) > 0 {
		doc.ASConfidence = make(map[string]float64, len(u.ASConfidence))
		for asn, v := range u.ASConfidence {
			doc.ASConfidence[asnKey(asn)] = v
		}
	}
	if m.Services.Scan != nil {
		doc.Servers = slices.Grow(doc.Servers, len(m.Services.Scan.Servers))
		for _, s := range m.Services.Scan.Servers {
			doc.Servers = append(doc.Servers, ServerDocument{
				Prefix:  s.Prefix.String(),
				HostAS:  uint32(s.HostAS),
				OwnerAS: uint32(s.OwnerASN),
				Org:     s.CertOrg,
				City:    s.City.Name,
				Country: s.City.Country,
			})
		}
	}
	for _, k := range order.KeysFunc(m.Services.Mapping, MappingKey.Compare) {
		doc.Mappings = append(doc.Mappings, MappingDocument{
			Domain:   k.Domain,
			ClientAS: uint32(k.ClientAS),
			Serving:  m.Services.Mapping[k].String(),
		})
	}
	doc.Normalize()
	return doc
}

// asnKey is an ASN as a document map key.
func asnKey(asn topology.ASN) string { return strconv.FormatUint(uint64(asn), 10) }

// Export writes the map's measured components as JSON.
func (m *TrafficMap) Export(w io.Writer) error {
	return m.Document().Export(w)
}

// Normalize puts a document into its canonical form, so that two documents
// with the same content export byte-identically no matter how they were
// produced (built from a TrafficMap, imported from JSON, or decoded from
// the binary codec): required maps are non-nil, optional maps
// (Coverage/ASConfidence) are nil when empty — matching their omitempty
// export — and slices are sorted (prefixes numerically where parseable,
// servers by CompareServer, mappings by CompareMapping).
func (doc *MapDocument) Normalize() {
	if doc.PrefixHitRates == nil {
		doc.PrefixHitRates = map[string]float64{}
	}
	if doc.ASActivity == nil {
		doc.ASActivity = map[string]float64{}
	}
	if doc.Sources == nil {
		doc.Sources = map[string]string{}
	}
	if len(doc.Coverage) == 0 {
		doc.Coverage = nil
	}
	if len(doc.ASConfidence) == 0 {
		doc.ASConfidence = nil
	}
	slices.SortFunc(doc.ActivePrefixes, comparePrefix)
	slices.SortFunc(doc.Servers, CompareServer)
	slices.SortFunc(doc.Mappings, CompareMapping)
}

// CompareServer is the one canonical server order: the full field tuple
// (prefix numerically, host AS, owner AS, org, city, country). Normalize
// sorts by it and the binary codec both encodes in it and rejects input
// that departs from it, so a decoded document is a Normalize fixed point.
// Only fully equal servers tie, which is why an unstable sort suffices.
func CompareServer(a, b ServerDocument) int {
	if a.Prefix != b.Prefix {
		return comparePrefix(a.Prefix, b.Prefix)
	}
	if c := cmp.Compare(a.HostAS, b.HostAS); c != 0 {
		return c
	}
	if c := cmp.Compare(a.OwnerAS, b.OwnerAS); c != 0 {
		return c
	}
	if c := strings.Compare(a.Org, b.Org); c != 0 {
		return c
	}
	if c := strings.Compare(a.City, b.City); c != 0 {
		return c
	}
	return strings.Compare(a.Country, b.Country)
}

// CompareMapping is the canonical mapping order, by domain then client AS:
// the document's unique key, so canonical order is strictly ascending.
func CompareMapping(a, b MappingDocument) int {
	if c := strings.Compare(a.Domain, b.Domain); c != 0 {
		return c
	}
	return cmp.Compare(a.ClientAS, b.ClientAS)
}

// comparePrefix orders CIDR strings by numeric prefix ID where both parse
// (lexicographic order would put 10.0.0.0/24 before 2.0.0.0/24), falling
// back to string order so unparseable inputs still sort deterministically.
func comparePrefix(a, b string) int {
	pa, ea := ParsePrefix(a)
	pb, eb := ParsePrefix(b)
	if ea == nil && eb == nil {
		return cmp.Compare(pa, pb)
	}
	return strings.Compare(a, b)
}

// Export writes the document as indented JSON, normalizing first. JSON map
// keys are emitted in sorted order by encoding/json, so the bytes are a
// pure function of the document's content.
func (doc *MapDocument) Export(w io.Writer) error {
	doc.Normalize()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func sourceString(s ActivitySource) string {
	switch s {
	case FromCacheProbe:
		return "cache-probe"
	case FromRootLogs:
		return "root-logs"
	case FromCacheProbe | FromRootLogs:
		return "cache-probe+root-logs"
	default:
		return "unknown"
	}
}

// ImportDocument parses a serialized map document.
func ImportDocument(r io.Reader) (*MapDocument, error) {
	var doc MapDocument
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("core: decoding map document: %w", err)
	}
	if doc.Version != mapDocVersion {
		return nil, fmt.Errorf("core: unsupported map document version %d", doc.Version)
	}
	return &doc, nil
}

// ParsePrefix parses a /24 in CIDR notation (the form PrefixID.String
// emits) back to its dense ID.
func ParsePrefix(s string) (topology.PrefixID, error) { return parsePrefix(s) }

// parsePrefix is hand-rolled rather than fmt.Sscanf-based: it sits under
// every document sort comparison, codec entry, and users-import key, so the
// success path must not allocate. Leading zeros are tolerated (as Sscanf
// did); trailing garbage is rejected.
func parsePrefix(s string) (topology.PrefixID, error) {
	bad := func() (topology.PrefixID, error) {
		return 0, fmt.Errorf("core: bad prefix %q", s)
	}
	i := 0
	octet := func() (int, bool) {
		start := i
		v := 0
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			v = v*10 + int(s[i]-'0')
			if v > 1<<24 { // cap far above any octet/mask; avoids overflow
				return 0, false
			}
			i++
		}
		return v, i > start
	}
	a, ok := octet()
	if !ok || i >= len(s) || s[i] != '.' {
		return bad()
	}
	i++
	b, ok := octet()
	if !ok || i >= len(s) || s[i] != '.' {
		return bad()
	}
	i++
	c, ok := octet()
	if !ok || i+1 >= len(s) || s[i] != '.' || s[i+1] != '0' {
		return bad()
	}
	i += 2
	if i >= len(s) || s[i] != '/' {
		return bad()
	}
	i++
	bits, ok := octet()
	if !ok || i != len(s) {
		return bad()
	}
	if bits != 24 {
		return 0, fmt.Errorf("core: prefix %q is not a /24", s)
	}
	if a > 255 || b > 255 || c > 255 {
		return 0, fmt.Errorf("core: prefix %q has an out-of-range octet", s)
	}
	return topology.PrefixID(a<<16 | b<<8 | c), nil
}
