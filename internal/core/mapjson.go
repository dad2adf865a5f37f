package core

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"itmap/internal/order"
	"itmap/internal/topology"
)

// AppendJSON appends the document's JSON to b: byte for byte what
// json.MarshalIndent(doc, "", "  ") gives, and a newline. It is the one
// writer of a document's JSON, behind /v1/map/{e} and Export; encoding/json
// is its test reference. It writes each JSONField in turn with
// AppendJSONField. A prefix wider than 24 bits, a source value without a
// label or a non-finite float is an error, as it is for encoding/json, and b
// comes back as it was.
func (doc *MapDocument) AppendJSON(b []byte) ([]byte, error) {
	out := b
	for f := range JSONFields {
		var err error
		if out, err = doc.AppendJSONField(out, f); err != nil {
			return b, err
		}
	}
	return out, nil
}

// JSONField is one top-level field of a document's JSON, in the order
// AppendJSON writes them: the head (the opening brace and the version), the
// document's six sections, and the tail (the closing brace and the
// newline).
type JSONField int

const (
	JSONHead JSONField = iota
	JSONActivePrefixes
	JSONHitRates
	JSONActivity
	JSONSources
	JSONServers
	JSONMappings
	JSONTail
	JSONFields
)

// AppendJSONField appends field f of the document's JSON to b, separator and
// all, so the fields AppendJSON lists are its bytes end to end; empty hit
// rates write nothing, as omitempty has it. Indents are spelled out, map
// keys are listed as their spellings sort (topology.PrefixesByText,
// topology.ASNsByText). On an error b comes back as it was.
func (doc *MapDocument) AppendJSONField(b []byte, f JSONField) ([]byte, error) {
	w, ps, ss, ms := &jsonWriter{b: b}, doc.ActivePrefixes, doc.Servers, doc.Mappings
	switch f {
	case JSONHead:
		w.raw("{\n  \"version\": ").int(int64(doc.Version))
	case JSONActivePrefixes:
		w.key("active_prefixes").each(ps == nil, "[]", len(ps), func(i int) { w.prefix(ps[i]) })
	case JSONHitRates:
		if hr := doc.PrefixHitRates; len(hr) > 0 {
			keyed(w.key("prefix_hit_rates"), hr, topology.PrefixesByText(hr), w.prefix, w.float)
		}
	case JSONActivity:
		keyed(w.key("as_activity"), doc.ASActivity, topology.ASNsByText(doc.ASActivity), w.asn, w.float)
	case JSONSources:
		source := func(s ActivitySource) { w.quote(s.label()) }
		keyed(w.key("sources"), doc.Sources, topology.ASNsByText(doc.Sources), w.asn, source)
	case JSONServers:
		w.key("servers").each(ss == nil, "[]", len(ss), func(i int) {
			w.raw("{\n      \"prefix\": ").prefix(ss[i].Prefix)
			w.raw(",\n      \"host_as\": ").int(int64(ss[i].HostAS))
			w.raw(",\n      \"owner_as\": ").int(int64(ss[i].OwnerAS))
			w.raw(",\n      \"org\": ").string(ss[i].Org)
			w.raw(",\n      \"city\": ").string(ss[i].City)
			w.raw(",\n      \"country\": ").string(ss[i].Country)
			w.raw("\n    }")
		})
	case JSONMappings:
		w.key("mappings").each(ms == nil, "[]", len(ms), func(i int) {
			w.raw("{\n      \"domain\": ").string(ms[i].Domain)
			w.raw(",\n      \"client_as\": ").int(int64(ms[i].ClientAS))
			w.raw(",\n      \"serving_prefix\": ").prefix(ms[i].Serving)
			w.raw("\n    }")
		})
	case JSONTail:
		w.raw("\n}\n")
	}
	if w.err != nil {
		return b, w.err
	}
	return w.b, nil
}

// keyed writes a map, nil as null, as its entries listed in order: key
// writes one's key, value its value.
func keyed[K comparable, V any](w *jsonWriter, m map[K]V, entries []order.Entry[K, V], key func(K), value func(V)) {
	w.each(m == nil, "{}", len(entries), func(i int) {
		key(entries[i].Key)
		w.raw(": ")
		value(entries[i].Value)
	})
}

// jsonWriter appends JSON values; the first error sticks.
type jsonWriter struct {
	b   []byte
	err error
}

func (w *jsonWriter) raw(s string) *jsonWriter {
	w.b = append(w.b, s...)
	return w
}

// key starts a field after the first; the names are plain ASCII.
func (w *jsonWriter) key(k string) *jsonWriter {
	w.b = append(append(append(w.b, ",\n  \""...), k...), `": `...)
	return w
}

// each writes null, or the list or map a field holds: n elements, the i-th
// written by elem, one a line, or [] or {} when there are none.
func (w *jsonWriter) each(null bool, brackets string, n int, elem func(i int)) {
	switch {
	case null:
		w.raw("null")
	case n == 0:
		w.raw(brackets)
	default:
		w.raw(brackets[:1])
		sep := "\n    "
		for i := 0; i < n; i++ {
			w.raw(sep)
			elem(i)
			sep = ",\n    "
		}
		w.raw("\n  ").raw(brackets[1:])
	}
}

func (w *jsonWriter) int(v int64) { w.b = strconv.AppendInt(w.b, v, 10) }

func (w *jsonWriter) asn(a topology.ASN) {
	w.b = append(strconv.AppendUint(append(w.b, '"'), uint64(a), 10), '"')
}

func (w *jsonWriter) prefix(p topology.PrefixID) {
	b, err := p.AppendText(append(w.b, '"'))
	w.b, w.err = append(b, '"'), cmp.Or(w.err, err)
}

// quote writes text that needs no escaping, unless err says there is none.
func (w *jsonWriter) quote(text string, err error) {
	w.b, w.err = append(append(append(w.b, '"'), text...), '"'), cmp.Or(w.err, err)
}

// float is encoding/json's format: the shortest decimal that reads back, in
// exponent form below 1e-6 and from 1e21 on, with e-07 written e-7. A whole
// number below 1e15, and so below 2^53, is its own shortest decimal and is
// written as an integer; that is most hit rates, which are 1.
func (w *jsonWriter) float(f float64) {
	if 0 <= f && f < 1e15 && !math.Signbit(f) && f == math.Trunc(f) {
		w.int(int64(f))
		return
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.err = cmp.Or(w.err, fmt.Errorf("core: unsupported value %v", f))
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2], w.b = w.b[n-1], w.b[:n-1]
	}
}

// string quotes plain ASCII as it is. Any other string goes through
// encoding/json, for its HTML escapes, U+2028 and U+2029, and the U+FFFD
// that stands in for invalid UTF-8.
func (w *jsonWriter) string(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, err := json.Marshal(s)
			w.b, w.err = append(w.b, q...), cmp.Or(w.err, err)
			return
		}
	}
	w.quote(s, nil)
}
