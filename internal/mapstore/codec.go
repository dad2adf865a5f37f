// Package mapstore is the serving layer over the toolkit's traffic maps:
// a compact deterministic binary codec for core.MapDocument, an in-memory
// epoch-versioned store with copy-on-write ingestion (readers never block
// writers), and a query engine (top-K activity, per-AS views, mesh paths
// and latencies, epoch-to-epoch diffs) that cmd/itm-serve exposes over HTTP.
package mapstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"itmap/internal/core"
	"itmap/internal/order"
	"itmap/internal/topology"
)

// Wire format (all integers are unsigned varints unless noted; floats are
// 8-byte little-endian IEEE 754 bit patterns):
//
//	header    magic "ITMB" | codec version (1) | document version
//	strings   count | count × (len | raw bytes)      sorted unique strings
//	actives   count | delta-encoded sorted prefix IDs (first absolute,
//	          then strictly positive deltas)
//	keyed ×5  count | count × (key delta | payload)   one per keyedSections
//	          row, in wire order: hit rates, activity, sources, and the
//	          retired grades and confidence (written empty, read and
//	          dropped); sorted by key (a /24 prefix ID or an ASN), payload
//	          a float or one code byte, the label enum's value
//	servers   count | count × (prefix | host AS | owner AS |
//	          org ref | city ref | country ref)      sorted by field tuple
//	mappings  count | count × (domain ref | client AS | serving prefix)
//	          sorted by (domain, client AS)
//
// Every section is sorted and every string interned through one sorted
// table, so the encoding of a document is a pure function of its content,
// and the decoder accepts nothing but that encoding: decode followed by
// re-encode is byte-identical, but for entries in a retired section
// (encoding.retiredEntries). The store relies on it to compare sections
// of consecutive epochs by their bytes and to adopt journaled bytes at
// recovery without re-encoding them.

// Magic identifies an encoded map document.
var Magic = [4]byte{'I', 'T', 'M', 'B'}

// CodecVersion is the wire-format version this package reads and writes.
const CodecVersion = 1

// Typed decode errors. Decoding never panics: corrupted, truncated, or
// oversized inputs surface one of these (possibly wrapped with section
// context).
var (
	// ErrMagic: the input does not start with the ITMB magic.
	ErrMagic = errors.New("mapstore: bad magic")
	// ErrVersion: the codec or document version is unsupported.
	ErrVersion = errors.New("mapstore: unsupported version")
	// ErrTruncated: the input ends before a section completes.
	ErrTruncated = errors.New("mapstore: truncated input")
	// ErrCorrupt: the input decodes to something non-canonical (unsorted
	// entries, out-of-range values, non-finite floats, dangling string refs,
	// trailing bytes).
	ErrCorrupt = errors.New("mapstore: corrupt input")
	// ErrEncode: the document holds values the wire format cannot carry, or
	// whose encoding the decoder would refuse: a prefix ID above 2^24−1, a
	// label outside its enum, a NaN or ±Inf, a duplicate active prefix or
	// mapping key, a negative version.
	ErrEncode = errors.New("mapstore: unencodable document")
)

// Wire sections, in the order they follow the header.
const (
	wireStrings = iota
	wireActives
	wireHitRates
	wireActivity
	wireSources
	wireRetiredGrades
	wireRetiredConfidence
	wireServers
	wireMappings

	wireSections
)

// keyedSection declares one keyed wire section: a document map from a /24
// or an ASN to a float or to a label enum, whose value travels as one code
// byte. Everything the codec and the store do per keyed section — encode,
// decode, share with the previous epoch — is one walk over keyedSections,
// so a new section costs a wire index and a row here.
type keyedSection struct {
	wire int
	// What the section, its keys and its payloads are called in errors.
	name, key, value string
	// maxKey bounds the keys: maxPrefixID or math.MaxUint32.
	maxKey uint64
	// codes is a label section's number of labels, 0 for a float section.
	codes int
	// retired sections have no field: written empty, read and dropped.
	retired bool
	// field reaches the document map the section reads and fills.
	field keyedField
}

const maxPrefixID = uint64(topology.MaxPrefixID)

var keyedSections = [...]keyedSection{
	{wire: wireHitRates, name: "prefix hit rates", key: "hit-rate prefix", value: "hit-rate value", maxKey: maxPrefixID,
		field: fieldOf(func(d *core.MapDocument) *map[topology.PrefixID]float64 { return &d.PrefixHitRates })},
	{wire: wireActivity, name: "AS activity", key: "activity ASN", value: "activity value", maxKey: math.MaxUint32,
		field: fieldOf(func(d *core.MapDocument) *map[topology.ASN]float64 { return &d.ASActivity })},
	{wire: wireSources, name: "sources", key: "source ASN", value: "source code", maxKey: math.MaxUint32,
		codes: core.ActivitySources,
		field: fieldOf(func(d *core.MapDocument) *map[topology.ASN]core.ActivitySource { return &d.Sources })},
	// Per-prefix grades (unknown/probed-ok/gave-up/stale), per-AS confidence.
	{wire: wireRetiredGrades, name: "coverage", key: "coverage prefix", value: "coverage code", maxKey: maxPrefixID,
		codes: 4, retired: true},
	{wire: wireRetiredConfidence, name: "AS confidence", key: "confidence ASN", value: "confidence value", maxKey: math.MaxUint32,
		retired: true},
}

// keyedField is one keyed document map seen as entries, whatever its key
// and value types: the three things the codec and the store do with it. An
// entry's payload is a float, or a label's enum value held as one.
type keyedField struct {
	// stage returns the document's entries in s, each payload ranked by its
	// key, in key order.
	stage func(doc *core.MapDocument, s *order.Scratch[float64]) []order.Ranked[float64]
	// fill gives the document a fresh map for n entries and returns the
	// setter that adds one.
	fill func(doc *core.MapDocument, n int) func(key uint32, v float64)
	// share points the document's map at prev's.
	share func(doc, prev *core.MapDocument)
}

func fieldOf[K ~uint32, V float64 | ~uint8](m func(*core.MapDocument) *map[K]V) keyedField {
	return keyedField{
		stage: func(doc *core.MapDocument, s *order.Scratch[float64]) []order.Ranked[float64] {
			return order.SortByRank(s, *m(doc), func(k K, v V) (float64, uint64) { return float64(v), uint64(k) })
		},
		fill: func(doc *core.MapDocument, n int) func(uint32, float64) {
			dst := make(map[K]V, n)
			*m(doc) = dst
			return func(key uint32, v float64) { dst[K(key)] = V(v) }
		},
		share: func(doc, prev *core.MapDocument) { *m(doc) = *m(prev) },
	}
}

// sectionOffsets records where each section of an epoch's record starts:
// the map's wire sections, then wireMesh, where the map ends and the mesh
// encoding behind it (if any) begins. Both codec directions walk the
// sections anyway and note the offsets as they go; the store compares
// sections of consecutive epochs through them (see shareSections).
type sectionOffsets [wireSections + 1]int

// wireMesh is a record's last span: the epoch's mesh encoding, empty for a
// map-only epoch, whose record is its map encoding alone.
const wireMesh = wireSections

// span returns the bytes of section i of the record rec: from its offset to
// the next section's, the mesh running to the end of the record.
func (o *sectionOffsets) span(rec []byte, i int) []byte {
	end := len(rec)
	if i < wireMesh {
		end = o[i+1]
	}
	return rec[o[i]:end]
}

// encoding is an epoch record's canonical bytes with their section offsets.
type encoding struct {
	bytes []byte
	off   sectionOffsets
}

// retiredEntries reports whether decoded bytes hold entries the decoder
// dropped: the two retired sections, adjacent, are more than their zero
// counts. Such bytes are not the encoding of what they decode to.
func (enc *encoding) retiredEntries() bool {
	return enc.off[wireServers]-enc.off[wireRetiredGrades] > 2
}

// --- encoding ---------------------------------------------------------------

type encoder struct {
	buf []byte
	off sectionOffsets
	// err is the first reason the document cannot be encoded: encoding runs
	// to the end regardless, and the document is refused if err is set.
	err error

	// Reusable scratch (pooled): sort staging for the actives and every
	// keyed section (the radix sort's two buffers) plus the interned string
	// table. Encoding a steady stream of epochs allocates only the
	// exact-size output slice it returns once the pool is warm.
	actives  []topology.PrefixID
	entries  order.Scratch[float64]
	servers  []core.ServerDocument
	mappings []core.MappingDocument
	table    []string
	seen     map[string]bool
	ref      map[string]uint64
}

// encPool recycles encoder scratch across EncodeDocument calls. The output
// buffer is cloned to exact size before release, so pooled state never
// escapes.
var encPool = sync.Pool{New: func() any {
	return &encoder{seen: map[string]bool{}, ref: map[string]uint64{}}
}}

// reset clears the scratch for reuse, keeping capacity.
func (e *encoder) reset() {
	e.buf = e.buf[:0]
	e.off = sectionOffsets{}
	e.err = nil
	e.actives = e.actives[:0]
	e.servers = e.servers[:0]
	e.mappings = e.mappings[:0]
	e.table = e.table[:0]
	clear(e.seen)
	clear(e.ref)
}

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *encoder) raw(b []byte)     { e.buf = append(e.buf, b...) }

// fail records why the document cannot be encoded, unless an earlier reason
// already was.
func (e *encoder) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("%w: "+format, append([]any{ErrEncode}, args...)...)
	}
}

// float writes a float payload. NaN and ±Inf have no JSON spelling, so no
// route could render a document holding one: they are refused here, before
// the write-ahead point, and by the decoder.
func (e *encoder) float(what string, f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.fail("%s %v is not finite", what, f)
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

// bounded returns v, refusing the document if v exceeds max: the decoder
// would reject it.
func (e *encoder) bounded(what string, v, max uint64) uint64 {
	if v > max {
		e.fail("%s %d out of range", what, v)
	}
	return v
}

// begin records that wire section i starts at the current output position.
func (e *encoder) begin(i int) { e.off[i] = len(e.buf) }

// delta writes v, the next value of an ascending sequence, as its distance
// from *prev (0 before the first, so that one travels as itself).
func (e *encoder) delta(prev *uint64, v uint64) {
	e.uvarint(v - *prev)
	*prev = v
}

// EncodeDocument serializes a map document into the ITMB wire format. The
// input is not mutated; entries are sorted into canonical order during
// encoding, so the output bytes are a pure function of the document's
// content.
//
//itmlint:allow deadexport benchmark/_tracer, a module of its own the loader does not see, times the map encode stage through it
func EncodeDocument(doc *core.MapDocument) ([]byte, error) {
	if doc == nil {
		return nil, fmt.Errorf("%w: nil document", ErrEncode)
	}
	rec, err := encodeRecord(doc, nil)
	return rec.bytes, err
}

// encodeRecord writes an epoch's journal record into one pooled buffer: the
// map document's ITMB encoding, then the mesh's when there is one (a nil doc
// writes the mesh alone, for EncodeMeshDocument). The record is what the
// store holds, hashes into the epoch's ETag and journals.
func encodeRecord(doc *core.MapDocument, mesh *core.MeshDocument) (encoding, error) {
	e := encPool.Get().(*encoder)
	defer encPool.Put(e)
	e.reset()
	if doc != nil {
		e.document(doc)
	}
	e.begin(wireMesh)
	if mesh != nil {
		e.mesh(mesh)
	}
	if e.err != nil {
		return encoding{}, e.err
	}
	codecEncoded.Add(uint64(len(e.buf)))
	// Exact-size clone: the pooled buffer stays with the encoder; callers
	// retain only their own bytes.
	out := encoding{bytes: make([]byte, len(e.buf)), off: e.off}
	copy(out.bytes, e.buf)
	return out, nil
}

// document writes the map document's wire sections.
func (e *encoder) document(doc *core.MapDocument) {
	e.raw(Magic[:])
	e.uvarint(CodecVersion)
	if doc.Version < 0 {
		e.fail("document version %d", doc.Version)
	}
	e.uvarint(e.bounded("document version", uint64(doc.Version), math.MaxInt32))

	// String table: every server org/city/country and mapping domain,
	// deduplicated and sorted. seen and table are pooled and pre-sized by
	// reuse, so steady-state interning allocates nothing.
	e.begin(wireStrings)
	seen := e.seen
	for i := range doc.Servers {
		seen[doc.Servers[i].Org] = true
		seen[doc.Servers[i].City] = true
		seen[doc.Servers[i].Country] = true
	}
	for i := range doc.Mappings {
		seen[doc.Mappings[i].Domain] = true
	}
	if cap(e.table) < len(seen) {
		e.table = make([]string, 0, len(seen))
	}
	table := e.table
	for s := range seen {
		table = append(table, s)
	}
	sort.Strings(table)
	e.table = table
	ref := e.ref
	for i, s := range table {
		ref[s] = uint64(i)
	}
	e.uvarint(uint64(len(table)))
	for _, s := range table {
		e.uvarint(uint64(len(s)))
		e.raw([]byte(s))
	}

	// Active prefixes.
	e.begin(wireActives)
	actives := append(e.actives, doc.ActivePrefixes...)
	slices.Sort(actives)
	e.actives = actives
	e.uvarint(uint64(len(actives)))
	var prev uint64
	for i, p := range actives {
		if i > 0 && p == actives[i-1] {
			e.fail("duplicate active prefix %v", p)
		}
		e.delta(&prev, e.bounded("active prefix", uint64(p), maxPrefixID))
	}

	for i := range keyedSections {
		e.begin(keyedSections[i].wire)
		e.keyed(&keyedSections[i], doc)
	}

	// Servers, in core.CompareServer order: the full field tuple, so ties on
	// prefix still have one canonical order.
	e.begin(wireServers)
	if cap(e.servers) < len(doc.Servers) {
		e.servers = make([]core.ServerDocument, len(doc.Servers))
	}
	servers := e.servers[:len(doc.Servers)]
	copy(servers, doc.Servers)
	slices.SortFunc(servers, core.CompareServer)
	e.servers = servers
	e.uvarint(uint64(len(servers)))
	for i := range servers {
		s := &servers[i]
		e.uvarint(e.bounded("server prefix", uint64(s.Prefix), maxPrefixID))
		e.uvarint(uint64(s.HostAS))
		e.uvarint(uint64(s.OwnerAS))
		e.uvarint(ref[s.Org])
		e.uvarint(ref[s.City])
		e.uvarint(ref[s.Country])
	}

	// Mappings, sorted by (domain, client AS); the key is unique, so
	// canonical order is strictly ascending.
	e.begin(wireMappings)
	if cap(e.mappings) < len(doc.Mappings) {
		e.mappings = make([]core.MappingDocument, len(doc.Mappings))
	}
	mappings := e.mappings[:len(doc.Mappings)]
	copy(mappings, doc.Mappings)
	slices.SortFunc(mappings, core.CompareMapping)
	e.uvarint(uint64(len(mappings)))
	for i := range mappings {
		m := &mappings[i]
		if i > 0 && core.CompareMapping(*m, mappings[i-1]) == 0 {
			e.fail("duplicate mapping key (%s, %d)", m.Domain, m.ClientAS)
		}
		e.uvarint(ref[m.Domain])
		e.uvarint(uint64(m.ClientAS))
		e.uvarint(e.bounded("mapping serving prefix", uint64(m.Serving), maxPrefixID))
	}
	e.mappings = mappings
}

// keyed writes one keyed section of doc: its entries staged in the pooled
// scratch, sorted by key and delta-encoded. A map holds each key once, so
// the keys ascend strictly, as the decoder requires.
func (e *encoder) keyed(sec *keyedSection, doc *core.MapDocument) {
	if sec.retired {
		e.uvarint(0)
		return
	}
	entries := sec.field.stage(doc, &e.entries)
	e.uvarint(uint64(len(entries)))
	var prev uint64
	for _, en := range entries {
		e.delta(&prev, e.bounded(sec.key, en.Rank, sec.maxKey))
		if sec.codes == 0 {
			e.float(sec.value, en.Value)
		} else {
			e.byte(byte(e.bounded(sec.value, uint64(en.Value), uint64(sec.codes-1))))
		}
	}
}

// --- decoding ---------------------------------------------------------------

type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) remaining() int { return len(d.buf) - d.pos }

func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		if n == 0 {
			return 0, fmt.Errorf("%w: %s", ErrTruncated, what)
		}
		return 0, fmt.Errorf("%w: %s varint overflows", ErrCorrupt, what)
	}
	// Reject non-minimal encodings (a trailing 0x00 continuation group):
	// the encoder always writes minimal varints, and accepting a redundant
	// form would break decode→re-encode byte-identity.
	if n > 1 && d.buf[d.pos+n-1] == 0 {
		return 0, fmt.Errorf("%w: %s varint not minimal", ErrCorrupt, what)
	}
	d.pos += n
	return v, nil
}

// count reads a section count and sanity-checks it against the bytes left:
// each entry occupies at least minEntry bytes, so a count larger than
// remaining/minEntry is an oversized-input attack, not a document.
func (d *decoder) count(what string, minEntry int) (int, error) {
	v, err := d.uvarint(what + " count")
	if err != nil {
		return 0, err
	}
	if minEntry < 1 {
		minEntry = 1
	}
	if v > uint64(d.remaining()/minEntry) {
		return 0, fmt.Errorf("%w: %s count %d exceeds input size", ErrCorrupt, what, v)
	}
	return int(v), nil
}

func (d *decoder) byteVal(what string) (byte, error) {
	if d.remaining() < 1 {
		return 0, fmt.Errorf("%w: %s", ErrTruncated, what)
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

// float reads a float payload; a NaN or ±Inf is one the encoder refuses.
func (d *decoder) float(what string) (float64, error) {
	if d.remaining() < 8 {
		return 0, fmt.Errorf("%w: %s", ErrTruncated, what)
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.pos:]))
	d.pos += 8
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("%w: %s %v is not finite", ErrCorrupt, what, f)
	}
	return f, nil
}

// payload reads one keyed entry's payload: a float, or a code the section's
// label enum has.
func (d *decoder) payload(sec *keyedSection) (float64, error) {
	if sec.codes == 0 {
		return d.float(sec.value)
	}
	c, err := d.byteVal(sec.value)
	if err == nil && int(c) >= sec.codes {
		err = fmt.Errorf("%w: %s %d", ErrCorrupt, sec.value, c)
	}
	return float64(c), err
}

func (d *decoder) str(what string) (string, error) {
	n, err := d.uvarint(what + " length")
	if err != nil {
		return "", err
	}
	if n > uint64(d.remaining()) {
		return "", fmt.Errorf("%w: %s", ErrTruncated, what)
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

// header reads the ITMB magic and requires the codec version behind it to be
// the one the caller decodes: map documents and mesh sections share the magic
// and tell each other apart by that version.
func (d *decoder) header(version uint64) error {
	if d.remaining() < len(Magic) {
		return fmt.Errorf("%w: input shorter than magic", ErrTruncated)
	}
	if string(d.buf[:len(Magic)]) != string(Magic[:]) {
		return ErrMagic
	}
	d.pos = len(Magic)
	cv, err := d.uvarint("codec version")
	if err != nil {
		return err
	}
	if cv != version {
		return fmt.Errorf("%w: codec version %d", ErrVersion, cv)
	}
	return nil
}

// deltaSeq reads a strictly ascending sequence of n keys: the first value
// absolute, then positive deltas. A zero delta is a duplicate and a delta
// that wraps around lands at or below its predecessor; either way the
// sequence does not ascend. max bounds the values.
func (d *decoder) deltaSeq(what string, n int, max uint64, visit func(v uint64) error) error {
	var cur uint64
	for i := 0; i < n; i++ {
		v, err := d.uvarint(what)
		if err != nil {
			return err
		}
		if i == 0 {
			cur = v
		} else {
			if cur+v <= cur {
				return fmt.Errorf("%w: %s not strictly ascending", ErrCorrupt, what)
			}
			cur += v
		}
		if cur > max {
			return fmt.Errorf("%w: %s value %d out of range", ErrCorrupt, what, cur)
		}
		if err := visit(cur); err != nil {
			return err
		}
	}
	return nil
}

// DecodeDocument parses ITMB bytes back into a map document. The result is
// canonical (sorted sections): re-encoding it reproduces the input bytes
// exactly, but for a retired section's entries, and Normalize leaves it
// unchanged. Corrupted, truncated, or oversized inputs return a typed
// error; decoding never panics. The input is not retained.
//
//itmlint:allow deadexport benchmark/_tracer, a module of its own the loader does not see, times the map decode stage through it
func DecodeDocument(data []byte) (*core.MapDocument, error) {
	doc, _, err := decodeDocument(data)
	return doc, err
}

// decodeDocument is DecodeDocument keeping the section offsets; the
// returned encoding aliases data.
func decodeDocument(data []byte) (*core.MapDocument, encoding, error) {
	doc, enc := &core.MapDocument{}, encoding{bytes: data}
	if err := decodeInto(doc, &enc, false); err != nil {
		return nil, encoding{}, err
	}
	return doc, enc, nil
}

// decodeInto decodes the map document enc.bytes starts with. The format
// needs no length prefix: after the last mapping the decoder stands exactly
// at the document's end, which it records as enc.off[wireMesh]. Bytes past
// that point are corruption unless the caller decodes a whole record (see
// decodeRecord), whose mesh they are.
func decodeInto(doc *core.MapDocument, enc *encoding, record bool) error {
	d := &decoder{buf: enc.bytes}
	if err := d.header(CodecVersion); err != nil {
		return err
	}
	dv, err := d.uvarint("document version")
	if err != nil {
		return err
	}
	if dv > math.MaxInt32 {
		return fmt.Errorf("%w: document version %d", ErrVersion, dv)
	}
	doc.Version = int(dv)

	// String table.
	enc.off[wireStrings] = d.pos
	nStr, err := d.count("string table", 1)
	if err != nil {
		return err
	}
	table := make([]string, nStr)
	for i := range table {
		s, err := d.str("string table entry")
		if err != nil {
			return err
		}
		if i > 0 && s <= table[i-1] {
			return fmt.Errorf("%w: string table not strictly sorted", ErrCorrupt)
		}
		table[i] = s
	}
	used := make([]bool, len(table))
	// ref reads one string-table reference.
	ref := func(what string) (uint64, string, error) {
		idx, err := d.uvarint(what)
		if err != nil {
			return 0, "", err
		}
		if idx >= uint64(len(table)) {
			return 0, "", fmt.Errorf("%w: %s string ref %d out of table", ErrCorrupt, what, idx)
		}
		used[idx] = true
		return idx, table[idx], nil
	}

	// Active prefixes.
	enc.off[wireActives] = d.pos
	n, err := d.count("active prefixes", 1)
	if err != nil {
		return err
	}
	if n > 0 {
		doc.ActivePrefixes = make([]topology.PrefixID, 0, n)
	}
	err = d.deltaSeq("active prefix", n, maxPrefixID, func(v uint64) error {
		doc.ActivePrefixes = append(doc.ActivePrefixes, topology.PrefixID(v))
		return nil
	})
	if err != nil {
		return err
	}

	// The keyed sections. An entry is at least a 1-byte key delta and its
	// payload: 8 bytes of float or 1 code byte.
	for i := range keyedSections {
		sec := &keyedSections[i]
		enc.off[sec.wire] = d.pos
		minEntry := 9
		if sec.codes > 0 {
			minEntry = 2
		}
		if n, err = d.count(sec.name, minEntry); err != nil {
			return err
		}
		set := func(uint32, float64) {}
		if !sec.retired {
			set = sec.field.fill(doc, n)
		}
		err = d.deltaSeq(sec.key, n, sec.maxKey, func(k uint64) error {
			v, err := d.payload(sec)
			if err == nil {
				set(uint32(k), v)
			}
			return err
		})
		if err != nil {
			return err
		}
	}

	// Servers.
	enc.off[wireServers] = d.pos
	if n, err = d.count("servers", 6); err != nil {
		return err
	}
	if n > 0 {
		doc.Servers = make([]core.ServerDocument, n)
	}
	for i := range doc.Servers {
		s := &doc.Servers[i]
		p, err := d.uvarint("server prefix")
		if err != nil {
			return err
		}
		if p > maxPrefixID {
			return fmt.Errorf("%w: server prefix %d out of range", ErrCorrupt, p)
		}
		s.Prefix = topology.PrefixID(p)
		host, err := d.uvarint("server host AS")
		if err != nil {
			return err
		}
		owner, err := d.uvarint("server owner AS")
		if err != nil {
			return err
		}
		if host > math.MaxUint32 || owner > math.MaxUint32 {
			return fmt.Errorf("%w: server AS out of range", ErrCorrupt)
		}
		s.HostAS, s.OwnerAS = uint32(host), uint32(owner)
		if _, s.Org, err = ref("server org"); err != nil {
			return err
		}
		if _, s.City, err = ref("server city"); err != nil {
			return err
		}
		if _, s.Country, err = ref("server country"); err != nil {
			return err
		}
		if i > 0 && core.CompareServer(*s, doc.Servers[i-1]) < 0 {
			return fmt.Errorf("%w: servers not in canonical order", ErrCorrupt)
		}
	}

	// Mappings.
	enc.off[wireMappings] = d.pos
	if n, err = d.count("mappings", 3); err != nil {
		return err
	}
	if n > 0 {
		doc.Mappings = make([]core.MappingDocument, n)
	}
	var prevDom uint64
	var prevAS uint32
	for i := range doc.Mappings {
		m := &doc.Mappings[i]
		var dom uint64
		if dom, m.Domain, err = ref("mapping domain"); err != nil {
			return err
		}
		cas, err := d.uvarint("mapping client AS")
		if err != nil {
			return err
		}
		if cas > math.MaxUint32 {
			return fmt.Errorf("%w: mapping client AS out of range", ErrCorrupt)
		}
		m.ClientAS = uint32(cas)
		p, err := d.uvarint("mapping serving prefix")
		if err != nil {
			return err
		}
		if p > maxPrefixID {
			return fmt.Errorf("%w: mapping serving prefix out of range", ErrCorrupt)
		}
		m.Serving = topology.PrefixID(p)
		if i > 0 && (dom < prevDom || (dom == prevDom && m.ClientAS <= prevAS)) {
			return fmt.Errorf("%w: mappings not in canonical order", ErrCorrupt)
		}
		prevDom, prevAS = dom, m.ClientAS
	}

	enc.off[wireMesh] = d.pos
	if !record && d.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.remaining())
	}
	// An unreferenced table entry would vanish on re-encode, so the input
	// would not be the canonical encoding of the document it decodes to —
	// and recovery adopts accepted input as exactly that.
	for i, u := range used {
		if !u {
			return fmt.Errorf("%w: unreferenced string table entry %d", ErrCorrupt, i)
		}
	}
	codecDecoded.Add(uint64(d.pos))
	return nil
}
