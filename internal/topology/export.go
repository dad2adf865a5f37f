package topology

import (
	"encoding/json"
	"fmt"
	"io"

	"itmap/internal/order"
)

// Export formats for inspecting generated worlds with standard tools.

// TopologyDocument is the JSON form of an AS-level topology.
type TopologyDocument struct {
	ASes  []ASDocument   `json:"ases"`
	Links []LinkDocument `json:"links"`
}

// ASDocument is one AS in the export.
type ASDocument struct {
	ASN          uint32  `json:"asn"`
	Name         string  `json:"name"`
	Type         string  `json:"type"`
	Country      string  `json:"country"`
	Prefixes     int     `json:"prefixes"`
	SubscribersK float64 `json:"subscribers_k,omitempty"`
	RootOperator bool    `json:"root_operator,omitempty"`
}

// LinkDocument is one undirected link in the export.
type LinkDocument struct {
	A    uint32 `json:"a"`
	B    uint32 `json:"b"`
	Rel  string `json:"rel_a_to_b"`
	Kind string `json:"kind"`
}

// ExportJSON writes the topology as JSON.
func (t *Topology) ExportJSON(w io.Writer) error {
	doc := TopologyDocument{}
	for _, asn := range t.ASNs() {
		a := t.ASes[asn]
		doc.ASes = append(doc.ASes, ASDocument{
			ASN:          uint32(asn),
			Name:         a.Name,
			Type:         a.Type.String(),
			Country:      a.Country,
			Prefixes:     len(a.Prefixes),
			SubscribersK: a.SubscribersK,
			RootOperator: a.RootOperator,
		})
	}
	for _, l := range t.Links() {
		doc.Links = append(doc.Links, LinkDocument{
			A: uint32(l.A), B: uint32(l.B),
			Rel: l.RelAB.String(), Kind: l.Kind.String(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ExportDOT writes the topology as a GraphViz digraph-free graph: node
// shape/color by role, edge style by link kind. Large worlds render best
// with sfdp.
func (t *Topology) ExportDOT(w io.Writer) error {
	var b []byte
	app := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	app("graph itmap {\n  overlap=false;\n  node [style=filled, fontsize=8];\n")
	styles := map[ASType]string{
		Tier1:      `shape=hexagon, fillcolor="#ffd966"`,
		Transit:    `shape=box, fillcolor="#d9d2e9"`,
		Eyeball:    `shape=ellipse, fillcolor="#c9daf8"`,
		Hypergiant: `shape=doubleoctagon, fillcolor="#f4cccc"`,
		Cloud:      `shape=octagon, fillcolor="#fce5cd"`,
		Enterprise: `shape=ellipse, fillcolor="#eeeeee"`,
		Academic:   `shape=ellipse, fillcolor="#d9ead3"`,
	}
	// Stable order for byte-identical exports.
	for _, ty := range order.Keys(styles) {
		for _, asn := range t.ASesOfType(ty) {
			a := t.ASes[asn]
			app("  %d [label=\"%s\\nAS%d\", %s];\n", asn, a.Name, asn, styles[ty])
		}
	}
	for _, l := range t.Links() {
		style := "solid"
		switch l.Kind {
		case PrivatePeering:
			style = "dashed"
		case IXPPeering:
			style = "dotted"
		}
		app("  %d -- %d [style=%s];\n", l.A, l.B, style)
	}
	app("}\n")
	_, err := w.Write(b)
	return err
}
