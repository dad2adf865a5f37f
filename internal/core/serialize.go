package core

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"

	"itmap/internal/order"
	"itmap/internal/topology"
)

// The JSON schema for a published traffic map. Maps are the artifact the
// paper wants the community to share ("we hope the research community both
// uses and encourages others to use the Internet traffic map"), so the
// export carries only measured estimates — never simulator ground truth.

// MapDocument is the serialized form of a TrafficMap. Its keys and labels
// are typed: how a /24, an ASN or a label is spelled is decided once, by
// their text marshallers (topology.PrefixID, ActivitySource, Coverage) and
// encoding/json's integer map keys, so every other layer handles values.
type MapDocument struct {
	Version int `json:"version"`
	// Users component.
	ActivePrefixes []topology.PrefixID             `json:"active_prefixes"`
	PrefixHitRates map[topology.PrefixID]float64   `json:"prefix_hit_rates,omitempty"`
	ASActivity     map[topology.ASN]float64        `json:"as_activity"`
	Sources        map[topology.ASN]ActivitySource `json:"sources"`
	// Coverage/ASConfidence only appear for maps built from a resilient
	// sweep's stats — fault-free documents stay byte-identical to v1
	// exports thanks to omitempty.
	Coverage     map[topology.PrefixID]Coverage `json:"coverage,omitempty"`
	ASConfidence map[topology.ASN]float64       `json:"as_confidence,omitempty"`
	// Services component.
	Servers  []ServerDocument  `json:"servers"`
	Mappings []MappingDocument `json:"mappings"`
}

// ServerDocument is one discovered serving prefix.
type ServerDocument struct {
	Prefix  topology.PrefixID `json:"prefix"`
	HostAS  uint32            `json:"host_as"`
	OwnerAS uint32            `json:"owner_as"`
	Org     string            `json:"org"`
	City    string            `json:"city"`
	Country string            `json:"country"`
}

// MappingDocument is one measured user→host mapping entry.
type MappingDocument struct {
	Domain   string            `json:"domain"`
	ClientAS uint32            `json:"client_as"`
	Serving  topology.PrefixID `json:"serving_prefix"`
}

const mapDocVersion = 1

// Document builds the serialized form of the map's measured components.
// The result is already normalized (see Normalize), so exporting it is
// deterministic.
func (m *TrafficMap) Document() *MapDocument {
	u := &m.Users
	doc := &MapDocument{
		Version:        mapDocVersion,
		ActivePrefixes: order.Keys(u.ActivePrefixes),
		PrefixHitRates: make(map[topology.PrefixID]float64, len(u.PrefixHitRate)),
		ASActivity:     maps.Clone(u.ASActivity),
		Sources:        maps.Clone(u.Sources),
		Coverage:       maps.Clone(u.Coverage),
		ASConfidence:   maps.Clone(u.ASConfidence),
	}
	for p, hr := range u.PrefixHitRate {
		if hr > 0 {
			doc.PrefixHitRates[p] = hr
		}
	}
	if m.Services.Scan != nil {
		doc.Servers = make([]ServerDocument, 0, len(m.Services.Scan.Servers))
		for _, s := range m.Services.Scan.Servers {
			doc.Servers = append(doc.Servers, ServerDocument{
				Prefix:  s.Prefix,
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
			Serving:  m.Services.Mapping[k],
		})
	}
	doc.Normalize()
	return doc
}

// Export writes the map's measured components as JSON.
func (m *TrafficMap) Export(w io.Writer) error {
	return m.Document().Export(w)
}

// Normalize puts a document into its canonical form, so that two documents
// with the same content export byte-identically no matter how they were
// produced (built from a TrafficMap, imported from JSON, or decoded from
// the binary codec): required maps are non-nil, optional maps
// (Coverage/ASConfidence) are nil when empty — matching their omitempty
// export — empty lists are nil, as the codec decodes them, so an empty
// list exports as null before a crash and after it, and lists are sorted
// (prefixes by ID, servers by CompareServer, mappings by CompareMapping).
func (doc *MapDocument) Normalize() {
	if doc.PrefixHitRates == nil {
		doc.PrefixHitRates = map[topology.PrefixID]float64{}
	}
	if doc.ASActivity == nil {
		doc.ASActivity = map[topology.ASN]float64{}
	}
	if doc.Sources == nil {
		doc.Sources = map[topology.ASN]ActivitySource{}
	}
	if len(doc.Coverage) == 0 {
		doc.Coverage = nil
	}
	if len(doc.ASConfidence) == 0 {
		doc.ASConfidence = nil
	}
	doc.ActivePrefixes = nilIfEmpty(doc.ActivePrefixes)
	doc.Servers = nilIfEmpty(doc.Servers)
	doc.Mappings = nilIfEmpty(doc.Mappings)
	slices.Sort(doc.ActivePrefixes)
	slices.SortFunc(doc.Servers, CompareServer)
	slices.SortFunc(doc.Mappings, CompareMapping)
}

func nilIfEmpty[S ~[]E, E any](s S) S {
	if len(s) == 0 {
		return nil
	}
	return s
}

// CompareServer is the one canonical server order: the full field tuple
// (prefix, host AS, owner AS, org, city, country). Normalize sorts by it
// and the binary codec both encodes in it and rejects input that departs
// from it, so a decoded document is a Normalize fixed point. Only fully
// equal servers tie, which is why an unstable sort suffices.
func CompareServer(a, b ServerDocument) int {
	if c := cmp.Compare(a.Prefix, b.Prefix); c != 0 {
		return c
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

// Export writes the document as indented JSON, normalizing first. JSON map
// keys are emitted in sorted order by encoding/json, so the bytes are a
// pure function of the document's content.
func (doc *MapDocument) Export(w io.Writer) error {
	doc.Normalize()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ImportDocument parses a serialized map document. It is the document's
// JSON trust boundary: a malformed prefix, ASN or label is refused here, and
// a key spelled with leading zeros ("064500", "01.0.0.0/24") is read as the
// key it names, so two spellings of one key are one key, the last one
// listed winning, as with any key JSON repeats.
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
