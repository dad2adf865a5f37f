// Package mapstore is the serving layer over the toolkit's traffic maps:
// a compact deterministic binary codec for core.MapDocument, an in-memory
// epoch-versioned store with copy-on-write ingestion (readers never block
// writers), and a query engine (top-K activity, per-AS views, link loads,
// epoch-to-epoch diffs) that cmd/itm-serve exposes over HTTP.
package mapstore

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"itmap/internal/core"
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
//	          row, in wire order: hit rates, activity, sources, coverage,
//	          confidence; sorted by key (a /24 prefix ID or an ASN), payload
//	          a float or one label-code byte
//	servers   count | count × (prefix | host AS | owner AS |
//	          org ref | city ref | country ref)      sorted by field tuple
//	mappings  count | count × (domain ref | client AS | serving prefix)
//	          sorted by (domain, client AS)
//
// Every section is sorted and every string interned through one sorted
// table, so the encoding of a document is a pure function of its content,
// and the decoder accepts nothing but that encoding: decode followed by
// re-encode is byte-identical. The store relies on it to compare sections
// of consecutive epochs by their bytes and to adopt journaled bytes at
// recovery without re-encoding them; E25 relies on it for cross-worker
// parity.

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
	// entries, out-of-range values, dangling string refs, trailing bytes).
	ErrCorrupt = errors.New("mapstore: corrupt input")
	// ErrEncode: the document holds values the wire format cannot carry
	// (unparseable prefix/ASN keys, unknown source or coverage labels).
	ErrEncode = errors.New("mapstore: unencodable document")
)

// Source and coverage labels get one code byte each. Index = wire code.
var (
	sourceCodes   = []string{"unknown", "cache-probe", "root-logs", "cache-probe+root-logs"}
	coverageCodes = []string{"unknown", "probed-ok", "gave-up", "stale"}
)

func codeOf(table []string, s string) (byte, bool) {
	for i, v := range table {
		if v == s {
			return byte(i), true
		}
	}
	return 0, false
}

const maxPrefixID = 1<<24 - 1

// Wire sections, in the order they follow the header.
const (
	wireStrings = iota
	wireActives
	wireHitRates
	wireActivity
	wireSources
	wireCoverage
	wireConfidence
	wireServers
	wireMappings

	wireSections
)

// keyedSection declares one keyed wire section: a document map from a typed
// key to a float or to a label that travels as one code byte. Everything the
// codec and the store do per keyed section — encode, decode, share with the
// previous epoch — is one walk over keyedSections, so a new section costs a
// wire index and a row here.
type keyedSection struct {
	wire int
	// What the section, its keys and its payloads are called in errors.
	name, key, value string
	// prefixes: keyed by /24 prefix ID; otherwise by ASN.
	prefixes bool
	// codes is the label table of a label section (index = wire code).
	codes []string
	// optional sections decode to a nil map when empty.
	optional bool
	// The document field the section fills: floats for a float payload,
	// labels for a label payload, the other nil.
	floats func(*core.MapDocument) *map[string]float64
	labels func(*core.MapDocument) *map[string]string
}

var keyedSections = [...]keyedSection{
	{wire: wireHitRates, name: "prefix hit rates", key: "hit-rate prefix", value: "hit-rate value",
		prefixes: true,
		floats:   func(d *core.MapDocument) *map[string]float64 { return &d.PrefixHitRates }},
	{wire: wireActivity, name: "AS activity", key: "activity ASN", value: "activity value",
		floats: func(d *core.MapDocument) *map[string]float64 { return &d.ASActivity }},
	{wire: wireSources, name: "sources", key: "source ASN", value: "source code",
		codes:  sourceCodes,
		labels: func(d *core.MapDocument) *map[string]string { return &d.Sources }},
	{wire: wireCoverage, name: "coverage", key: "coverage prefix", value: "coverage code",
		prefixes: true, codes: coverageCodes, optional: true,
		labels: func(d *core.MapDocument) *map[string]string { return &d.Coverage }},
	{wire: wireConfidence, name: "AS confidence", key: "confidence ASN", value: "confidence value",
		optional: true,
		floats:   func(d *core.MapDocument) *map[string]float64 { return &d.ASConfidence }},
}

// parseKey parses one document key of the section into its typed form.
func (sec *keyedSection) parseKey(s string) (uint32, error) {
	if sec.prefixes {
		p, err := parseDocPrefix(s)
		return uint32(p), err
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("%w: bad ASN key %q", ErrEncode, s)
	}
	return uint32(v), nil
}

// maxKey bounds the section's typed keys.
func (sec *keyedSection) maxKey() uint64 {
	if sec.prefixes {
		return maxPrefixID
	}
	return math.MaxUint32
}

// sectionOffsets records where each wire section starts in an encoded
// document. Both codec directions walk the sections anyway and note the
// offsets as they go; the store compares sections of consecutive epochs
// through them (see shareSections).
type sectionOffsets [wireSections]int

// span returns the bytes of wire section i of enc: from its offset to the
// next section's, the last one running to the end of the document.
func (o *sectionOffsets) span(enc []byte, i int) []byte {
	end := len(enc)
	if i+1 < wireSections {
		end = o[i+1]
	}
	return enc[o[i]:end]
}

// encoding is a document's canonical ITMB bytes with their section offsets
// and the typed form of the active prefixes — ascending, no duplicates —
// which both codec directions hold anyway and the epoch diff reads.
type encoding struct {
	bytes   []byte
	off     sectionOffsets
	actives []topology.PrefixID
}

// --- encoding ---------------------------------------------------------------

type encoder struct {
	buf []byte
	off sectionOffsets

	// Reusable scratch (pooled): sort staging for every keyed section plus
	// the interned string table. Encoding a steady stream of epochs allocates
	// only what it returns — the exact-size output slice and the typed active
	// prefixes — once the pool is warm.
	entries  []keyedEntry
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
	e.entries = e.entries[:0]
	e.servers = e.servers[:0]
	e.mappings = e.mappings[:0]
	e.table = e.table[:0]
	clear(e.seen)
	clear(e.ref)
}

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *encoder) float(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}
func (e *encoder) raw(b []byte) { e.buf = append(e.buf, b...) }

// begin records that wire section i starts at the current output position.
func (e *encoder) begin(i int) { e.off[i] = len(e.buf) }

// delta writes v, the next value of an ascending sequence, as its distance
// from *prev (0 before the first, so that one travels as itself).
func (e *encoder) delta(prev *uint64, v uint64) {
	e.uvarint(v - *prev)
	*prev = v
}

// keyedEntry is one (typed key, payload) pair of a keyed section, staged for
// sorting.
type keyedEntry struct {
	key uint32
	f   float64
	c   byte
}

func compareKeyedEntry(a, b keyedEntry) int { return cmp.Compare(a.key, b.key) }

func parseDocPrefix(s string) (topology.PrefixID, error) {
	p, err := core.ParsePrefix(s)
	if err != nil {
		return 0, fmt.Errorf("%w: bad prefix key %q", ErrEncode, s)
	}
	return p, nil
}

// EncodeDocument serializes a map document into the ITMB wire format. The
// input is not mutated; entries are sorted into canonical order during
// encoding, so the output bytes are a pure function of the document's
// content.
func EncodeDocument(doc *core.MapDocument) ([]byte, error) {
	enc, err := encodeDocument(doc)
	return enc.bytes, err
}

// encodeDocument is EncodeDocument keeping the section offsets.
func encodeDocument(doc *core.MapDocument) (encoding, error) {
	if doc == nil {
		return encoding{}, fmt.Errorf("%w: nil document", ErrEncode)
	}
	e := encPool.Get().(*encoder)
	defer encPool.Put(e)
	e.reset()
	e.raw(Magic[:])
	e.uvarint(CodecVersion)
	if doc.Version < 0 || doc.Version > math.MaxInt32 {
		return encoding{}, fmt.Errorf("%w: document version %d", ErrEncode, doc.Version)
	}
	e.uvarint(uint64(doc.Version))

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
	actives := make([]topology.PrefixID, 0, len(doc.ActivePrefixes))
	for _, s := range doc.ActivePrefixes {
		p, err := parseDocPrefix(s)
		if err != nil {
			return encoding{}, err
		}
		actives = append(actives, p)
	}
	slices.Sort(actives)
	for i := 1; i < len(actives); i++ {
		if actives[i] == actives[i-1] {
			return encoding{}, fmt.Errorf("%w: duplicate active prefix %v", ErrEncode, actives[i])
		}
	}
	e.uvarint(uint64(len(actives)))
	var prev uint64
	for _, p := range actives {
		e.delta(&prev, uint64(p))
	}

	for i := range keyedSections {
		e.begin(keyedSections[i].wire)
		if err := e.keyed(&keyedSections[i], doc); err != nil {
			return encoding{}, err
		}
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
		p, err := parseDocPrefix(s.Prefix)
		if err != nil {
			return encoding{}, err
		}
		e.uvarint(uint64(p))
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
	for i := 1; i < len(mappings); i++ {
		if core.CompareMapping(mappings[i], mappings[i-1]) == 0 {
			return encoding{}, fmt.Errorf("%w: duplicate mapping key (%s, %d)", ErrEncode, mappings[i].Domain, mappings[i].ClientAS)
		}
	}
	e.uvarint(uint64(len(mappings)))
	for i := range mappings {
		m := &mappings[i]
		p, err := parseDocPrefix(m.Serving)
		if err != nil {
			return encoding{}, err
		}
		e.uvarint(ref[m.Domain])
		e.uvarint(uint64(m.ClientAS))
		e.uvarint(uint64(p))
	}
	e.mappings = mappings
	codecEncoded.Add(uint64(len(e.buf)))
	// Exact-size clone: the pooled buffer stays with the encoder; callers
	// retain only their own bytes.
	out := encoding{bytes: make([]byte, len(e.buf)), off: e.off, actives: actives}
	copy(out.bytes, e.buf)
	return out, nil
}

// keyed writes one keyed section of doc: its entries parsed, staged in the
// pooled scratch, sorted by typed key and delta-encoded. Two document keys
// with the same typed form ("7" and "07") are one key twice — the decoder
// rejects that, so the encoder must.
func (e *encoder) keyed(sec *keyedSection, doc *core.MapDocument) error {
	var floats map[string]float64
	var labels map[string]string
	if sec.codes == nil {
		floats = *sec.floats(doc)
	} else {
		labels = *sec.labels(doc)
	}
	if n := len(floats) + len(labels); cap(e.entries) < n {
		e.entries = make([]keyedEntry, 0, n)
	}
	entries := e.entries[:0]
	for s, v := range floats {
		k, err := sec.parseKey(s)
		if err != nil {
			return err
		}
		entries = append(entries, keyedEntry{key: k, f: v})
	}
	for s, v := range labels {
		k, err := sec.parseKey(s)
		if err != nil {
			return err
		}
		c, ok := codeOf(sec.codes, v)
		if !ok {
			return fmt.Errorf("%w: unknown %s label %q", ErrEncode, sec.name, v)
		}
		entries = append(entries, keyedEntry{key: k, c: c})
	}
	e.entries = entries
	slices.SortFunc(entries, compareKeyedEntry)
	e.uvarint(uint64(len(entries)))
	var prev uint64
	for i, en := range entries {
		if i > 0 && uint64(en.key) == prev {
			var shown any = en.key
			if sec.prefixes {
				shown = topology.PrefixID(en.key)
			}
			return fmt.Errorf("%w: two %s keys parse to %v", ErrEncode, sec.key, shown)
		}
		e.delta(&prev, uint64(en.key))
		if sec.codes == nil {
			e.float(en.f)
		} else {
			e.byte(en.c)
		}
	}
	return nil
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

func (d *decoder) float(what string) (float64, error) {
	if d.remaining() < 8 {
		return 0, fmt.Errorf("%w: %s", ErrTruncated, what)
	}
	bits := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return math.Float64frombits(bits), nil
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

// keyArena renders the "a.b.c.0/24" and decimal-ASN keys a document carries
// into chunks of shared backing text and hands out substrings of them, so
// decoding allocates per chunk rather than per key. A full chunk is simply
// left to the keys cut from it.
type keyArena struct {
	text  strings.Builder
	chunk int
}

const (
	maxPrefixKeyLen = len("255.255.255.0/24")
	maxASNKeyLen    = len("4294967295")
	maxArenaChunk   = 64 << 10
)

// newKeyArena sizes the chunks for a document of inputLen encoded bytes:
// about the input's own size, so a small document does not pin a large
// chunk, up to a cap that keeps the unused tail of a large one's last chunk
// small next to the document.
func newKeyArena(inputLen int) keyArena {
	return keyArena{chunk: min(max(inputLen, maxPrefixKeyLen), maxArenaChunk)}
}

func (a *keyArena) cut(b []byte) string {
	if a.text.Cap()-a.text.Len() < len(b) {
		a.text = strings.Builder{}
		a.text.Grow(a.chunk)
	}
	start := a.text.Len()
	a.text.Write(b)
	return a.text.String()[start:]
}

// prefix renders a prefix ID as topology.PrefixID.String does, into the
// arena instead of a string of its own.
func (a *keyArena) prefix(p uint64) string {
	var tmp [maxPrefixKeyLen]byte
	return a.cut(topology.PrefixID(p).Prefix().AppendTo(tmp[:0]))
}

// asn renders an ASN exactly as strconv.FormatUint(v, 10) does.
func (a *keyArena) asn(v uint64) string {
	var tmp [maxASNKeyLen]byte
	return a.cut(strconv.AppendUint(tmp[:0], v, 10))
}

// DecodeDocument parses ITMB bytes back into a map document. The result is
// canonical (sorted sections, nil empty optional maps): re-encoding it
// reproduces the input bytes exactly and Normalize leaves it unchanged.
// Corrupted, truncated, or oversized inputs return a typed error; decoding
// never panics. The input is not retained.
func DecodeDocument(data []byte) (*core.MapDocument, error) {
	doc, _, err := decodeDocument(data)
	return doc, err
}

// decodeDocument is DecodeDocument keeping the section offsets; the
// returned encoding aliases data.
func decodeDocument(data []byte) (*core.MapDocument, encoding, error) {
	doc, enc := &core.MapDocument{}, encoding{bytes: data}
	if err := decodeInto(doc, &enc, nil); err != nil {
		return nil, encoding{}, err
	}
	return doc, enc, nil
}

// decodeInto decodes the map document enc.bytes starts with. The format
// needs no length prefix: after the last mapping the decoder stands exactly
// at the document's end. Bytes past that point are corruption unless the
// caller asks for them (an epoch's journal record, see decodeEpochPayload):
// with tail non-nil, enc.bytes is cut down to the document's own span and
// *tail receives what follows it.
func decodeInto(doc *core.MapDocument, enc *encoding, tail *[]byte) error {
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
	keys := newKeyArena(len(enc.bytes))

	// Active prefixes.
	enc.off[wireActives] = d.pos
	n, err := d.count("active prefixes", 1)
	if err != nil {
		return err
	}
	if n > 0 {
		doc.ActivePrefixes = make([]string, 0, n)
	}
	activeIDs := make([]topology.PrefixID, 0, n)
	err = d.deltaSeq("active prefix", n, maxPrefixID, func(v uint64) error {
		activeIDs = append(activeIDs, topology.PrefixID(v))
		doc.ActivePrefixes = append(doc.ActivePrefixes, keys.prefix(v))
		return nil
	})
	if err != nil {
		return err
	}
	enc.actives = activeIDs
	// sectionKey is the document key for the next entry of a keyed section.
	// Prefix-keyed sections hold (mostly) active prefixes and ascend as the
	// actives do, so a cursor — rewound per section — finds the active
	// prefix's own string to reuse; any other prefix, and every ASN, gets
	// fresh arena text.
	cursor := 0
	sectionKey := func(sec *keyedSection, v uint64) string {
		if !sec.prefixes {
			return keys.asn(v)
		}
		for cursor < len(activeIDs) && uint64(activeIDs[cursor]) < v {
			cursor++
		}
		if cursor < len(activeIDs) && uint64(activeIDs[cursor]) == v {
			return doc.ActivePrefixes[cursor]
		}
		return keys.prefix(v)
	}

	// The keyed sections. An entry is at least a 1-byte key delta and its
	// payload: 8 bytes of float or 1 code byte.
	for i := range keyedSections {
		sec := &keyedSections[i]
		enc.off[sec.wire] = d.pos
		minEntry := 9
		if sec.codes != nil {
			minEntry = 2
		}
		if n, err = d.count(sec.name, minEntry); err != nil {
			return err
		}
		var floats map[string]float64
		var labels map[string]string
		switch {
		case n == 0 && sec.optional:
		case sec.codes == nil:
			floats = make(map[string]float64, n)
		default:
			labels = make(map[string]string, n)
		}
		cursor = 0
		err = d.deltaSeq(sec.key, n, sec.maxKey(), func(v uint64) error {
			if sec.codes == nil {
				f, err := d.float(sec.value)
				if err != nil {
					return err
				}
				floats[sectionKey(sec, v)] = f
				return nil
			}
			c, err := d.byteVal(sec.value)
			if err != nil {
				return err
			}
			if int(c) >= len(sec.codes) {
				return fmt.Errorf("%w: %s %d", ErrCorrupt, sec.value, c)
			}
			labels[sectionKey(sec, v)] = sec.codes[c]
			return nil
		})
		if err != nil {
			return err
		}
		if sec.codes == nil {
			*sec.floats(doc) = floats
		} else {
			*sec.labels(doc) = labels
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
		s.Prefix = keys.prefix(p)
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
		m.Serving = keys.prefix(p)
		if i > 0 && (dom < prevDom || (dom == prevDom && m.ClientAS <= prevAS)) {
			return fmt.Errorf("%w: mappings not in canonical order", ErrCorrupt)
		}
		prevDom, prevAS = dom, m.ClientAS
	}

	if tail != nil {
		*tail, enc.bytes = enc.bytes[d.pos:], enc.bytes[:d.pos:d.pos]
	} else if d.remaining() != 0 {
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
	codecDecoded.Add(uint64(len(enc.bytes)))
	return nil
}
