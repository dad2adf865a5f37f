package core

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"itmap/internal/topology"
)

// The JSON schema for a published traffic map. Maps are the artifact the
// paper wants the community to share ("we hope the research community both
// uses and encourages others to use the Internet traffic map"), so the
// export carries only measured estimates — never simulator ground truth.

// MapDocument is the traffic map as it is served; BuildMap fills it. Its
// keys and labels are typed: how a /24, an ASN or a label is spelled, and the
// order map keys are listed in, is decided once, by AppendJSON, so every
// other layer handles values. encoding/json reads documents in (through the
// text unmarshallers) and is AppendJSON's test reference.
type MapDocument struct {
	Version int `json:"version"`
	// Users component.
	ActivePrefixes []topology.PrefixID             `json:"active_prefixes"`
	PrefixHitRates map[topology.PrefixID]float64   `json:"prefix_hit_rates,omitempty"`
	ASActivity     map[topology.ASN]float64        `json:"as_activity"`
	Sources        map[topology.ASN]ActivitySource `json:"sources"`
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

// Document returns the map's serialized form: its own document, not a copy.
func (m *TrafficMap) Document() *MapDocument { return &m.MapDocument }

// Normalize puts a document into its canonical form, so that two documents
// with the same content export byte-identically no matter how they were
// produced (built by BuildMap, imported from JSON, or decoded from
// the binary codec): maps are non-nil, empty lists are nil, as the codec
// decodes them, so an empty list exports as null before a crash and after
// it, and lists are sorted (prefixes by ID, servers by CompareServer,
// mappings by CompareMapping).
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

// Export writes the document as indented JSON, normalizing first: the bytes
// AppendJSON gives, a pure function of the document's content.
func (doc *MapDocument) Export(w io.Writer) error {
	doc.Normalize()
	b, err := doc.AppendJSON(nil)
	if err == nil {
		_, err = w.Write(b)
	}
	return err
}

// ImportDocument parses a serialized map document. It is the document's
// JSON trust boundary: a malformed prefix, ASN or label is refused here, and
// a key spelled with leading zeros ("064500", "01.0.0.0/24") is read as the
// key it names, so two spellings of one key are one key, the last one
// listed winning, as with any key JSON repeats. A field MapDocument does not
// define is ignored, whatever it holds: so are the per-prefix grades and
// per-AS confidences older exports could carry.
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
