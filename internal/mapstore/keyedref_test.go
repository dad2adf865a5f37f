package mapstore

// The keyed-section code of the parent commit (5ba8f43), kept verbatim as
// the oracle for the keyedSections table: the four per-kind encoder
// functions with their entry types, comparators and scratch getters, the
// encodeDocument that called them, the decodeInto with its five hand-written
// decode blocks, and the shareSections with its five hand-written ifs.
// Changed only where the move into a test file forces it: names are
// ref-prefixed, the encoder methods hang off refEncoder (the pooled encoder
// plus the two scratches it no longer has), the encoder is fresh instead of
// pooled, and the codec byte counters are not ticked a second time. The
// primitives underneath (varints, count, deltaSeq, the key arena) are the
// package's own, shared by both sides.

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"itmap/internal/core"
	"itmap/internal/topology"
)

type refEncoder struct {
	encoder
	pEntries []refPrefixEntry
	aEntries []refASNEntry
}

// refPrefixEntry is one (prefix, payload) pair of a prefix-keyed section.
type refPrefixEntry struct {
	p topology.PrefixID
	f float64
	c byte
}

func refComparePrefixEntry(a, b refPrefixEntry) int { return cmp.Compare(a.p, b.p) }

// refASNEntry is one (ASN, payload) pair of an ASN-keyed section.
type refASNEntry struct {
	asn uint32
	f   float64
	c   byte
}

func refCompareASNEntry(a, b refASNEntry) int { return cmp.Compare(a.asn, b.asn) }

func refParseASN(s string) (uint32, error) {
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("%w: bad ASN key %q", ErrEncode, s)
	}
	return uint32(v), nil
}

// refEncodeDocument is the parent's encodeDocument.
func refEncodeDocument(doc *core.MapDocument) (encoding, error) {
	if doc == nil {
		return encoding{}, fmt.Errorf("%w: nil document", ErrEncode)
	}
	e := &refEncoder{encoder: encoder{seen: map[string]bool{}, ref: map[string]uint64{}}}
	e.raw(Magic[:])
	e.uvarint(CodecVersion)
	if doc.Version < 0 {
		return encoding{}, fmt.Errorf("%w: negative document version", ErrEncode)
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
	prev := topology.PrefixID(0)
	for i, p := range actives {
		if i == 0 {
			e.uvarint(uint64(p))
		} else {
			e.uvarint(uint64(p - prev))
		}
		prev = p
	}

	// Prefix- and ASN-keyed float and code sections.
	e.begin(wireHitRates)
	if err := e.prefixFloats(doc.PrefixHitRates); err != nil {
		return encoding{}, err
	}
	e.begin(wireActivity)
	if err := e.asnFloats(doc.ASActivity); err != nil {
		return encoding{}, err
	}
	e.begin(wireSources)
	if err := e.asnCodes(doc.Sources, sourceCodes, "source"); err != nil {
		return encoding{}, err
	}
	e.begin(wireCoverage)
	if err := e.prefixCodes(doc.Coverage, coverageCodes, "coverage"); err != nil {
		return encoding{}, err
	}
	e.begin(wireConfidence)
	if err := e.asnFloats(doc.ASConfidence); err != nil {
		return encoding{}, err
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
	// Exact-size clone: the pooled buffer stays with the encoder; callers
	// retain only their own bytes.
	out := encoding{bytes: make([]byte, len(e.buf)), off: e.off, actives: actives}
	copy(out.bytes, e.buf)
	return out, nil
}

// prefixScratch returns the pooled prefix-entry staging slice, emptied and
// grown to hold n entries.
func (e *refEncoder) prefixScratch(n int) []refPrefixEntry {
	if cap(e.pEntries) < n {
		e.pEntries = make([]refPrefixEntry, 0, n)
	}
	return e.pEntries[:0]
}

// asnScratch is prefixScratch for ASN-keyed sections.
func (e *refEncoder) asnScratch(n int) []refASNEntry {
	if cap(e.aEntries) < n {
		e.aEntries = make([]refASNEntry, 0, n)
	}
	return e.aEntries[:0]
}

func (e *refEncoder) prefixFloats(m map[string]float64) error {
	entries := e.prefixScratch(len(m))
	for s, v := range m {
		p, err := parseDocPrefix(s)
		if err != nil {
			return err
		}
		entries = append(entries, refPrefixEntry{p: p, f: v})
	}
	e.pEntries = entries
	slices.SortFunc(entries, refComparePrefixEntry)
	e.uvarint(uint64(len(entries)))
	prev := topology.PrefixID(0)
	for i, en := range entries {
		if i == 0 {
			e.uvarint(uint64(en.p))
		} else {
			e.uvarint(uint64(en.p - prev))
		}
		prev = en.p
		e.float(en.f)
	}
	return nil
}

func (e *refEncoder) prefixCodes(m map[string]string, table []string, what string) error {
	entries := e.prefixScratch(len(m))
	for s, v := range m {
		p, err := parseDocPrefix(s)
		if err != nil {
			return err
		}
		c, ok := codeOf(table, v)
		if !ok {
			return fmt.Errorf("%w: unknown %s label %q", ErrEncode, what, v)
		}
		entries = append(entries, refPrefixEntry{p: p, c: c})
	}
	e.pEntries = entries
	slices.SortFunc(entries, refComparePrefixEntry)
	e.uvarint(uint64(len(entries)))
	prev := topology.PrefixID(0)
	for i, en := range entries {
		if i == 0 {
			e.uvarint(uint64(en.p))
		} else {
			e.uvarint(uint64(en.p - prev))
		}
		prev = en.p
		e.byte(en.c)
	}
	return nil
}

func (e *refEncoder) asnFloats(m map[string]float64) error {
	entries := e.asnScratch(len(m))
	for s, v := range m {
		asn, err := refParseASN(s)
		if err != nil {
			return err
		}
		entries = append(entries, refASNEntry{asn: asn, f: v})
	}
	e.aEntries = entries
	slices.SortFunc(entries, refCompareASNEntry)
	e.uvarint(uint64(len(entries)))
	prev := uint32(0)
	for i, en := range entries {
		if i == 0 {
			e.uvarint(uint64(en.asn))
		} else {
			e.uvarint(uint64(en.asn - prev))
		}
		prev = en.asn
		e.float(en.f)
	}
	return nil
}

func (e *refEncoder) asnCodes(m map[string]string, table []string, what string) error {
	entries := e.asnScratch(len(m))
	for s, v := range m {
		asn, err := refParseASN(s)
		if err != nil {
			return err
		}
		c, ok := codeOf(table, v)
		if !ok {
			return fmt.Errorf("%w: unknown %s label %q", ErrEncode, what, v)
		}
		entries = append(entries, refASNEntry{asn: asn, c: c})
	}
	e.aEntries = entries
	slices.SortFunc(entries, refCompareASNEntry)
	e.uvarint(uint64(len(entries)))
	prev := uint32(0)
	for i, en := range entries {
		if i == 0 {
			e.uvarint(uint64(en.asn))
		} else {
			e.uvarint(uint64(en.asn - prev))
		}
		prev = en.asn
		e.byte(en.c)
	}
	return nil
}

// refDecodeInto is the parent's decodeInto: it decodes the map document enc.bytes starts with. The format
// needs no length prefix: after the last mapping the decoder stands exactly
// at the document's end. Bytes past that point are corruption unless the
// caller asks for them (an epoch's journal record, see decodeEpochPayload):
// with tail non-nil, enc.bytes is cut down to the document's own span and
// *tail receives what follows it.
func refDecodeInto(doc *core.MapDocument, enc *encoding, tail *[]byte) error {
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
	// prefixKey is the key for the next prefix of a prefix-keyed section.
	// Those sections are keyed by (mostly) active prefixes and ascend as the
	// actives do, so a cursor finds the active prefix's own string to reuse;
	// any other prefix gets fresh arena text.
	cursor := 0
	prefixKey := func(v uint64) string {
		for cursor < len(activeIDs) && uint64(activeIDs[cursor]) < v {
			cursor++
		}
		if cursor < len(activeIDs) && uint64(activeIDs[cursor]) == v {
			return doc.ActivePrefixes[cursor]
		}
		return keys.prefix(v)
	}

	// Prefix hit rates.
	enc.off[wireHitRates] = d.pos
	if n, err = d.count("prefix hit rates", 9); err != nil {
		return err
	}
	doc.PrefixHitRates = make(map[string]float64, n)
	err = d.deltaSeq("hit-rate prefix", n, maxPrefixID, func(v uint64) error {
		f, err := d.float("hit-rate value")
		if err != nil {
			return err
		}
		doc.PrefixHitRates[prefixKey(v)] = f
		return nil
	})
	if err != nil {
		return err
	}

	// AS activity.
	enc.off[wireActivity] = d.pos
	if n, err = d.count("AS activity", 9); err != nil {
		return err
	}
	doc.ASActivity = make(map[string]float64, n)
	err = d.deltaSeq("activity ASN", n, math.MaxUint32, func(v uint64) error {
		f, err := d.float("activity value")
		if err != nil {
			return err
		}
		doc.ASActivity[keys.asn(v)] = f
		return nil
	})
	if err != nil {
		return err
	}

	// Sources.
	enc.off[wireSources] = d.pos
	if n, err = d.count("sources", 2); err != nil {
		return err
	}
	doc.Sources = make(map[string]string, n)
	err = d.deltaSeq("source ASN", n, math.MaxUint32, func(v uint64) error {
		c, err := d.byteVal("source code")
		if err != nil {
			return err
		}
		if int(c) >= len(sourceCodes) {
			return fmt.Errorf("%w: source code %d", ErrCorrupt, c)
		}
		doc.Sources[keys.asn(v)] = sourceCodes[c]
		return nil
	})
	if err != nil {
		return err
	}

	// Coverage.
	enc.off[wireCoverage] = d.pos
	if n, err = d.count("coverage", 2); err != nil {
		return err
	}
	if n > 0 {
		doc.Coverage = make(map[string]string, n)
	}
	cursor = 0
	err = d.deltaSeq("coverage prefix", n, maxPrefixID, func(v uint64) error {
		c, err := d.byteVal("coverage code")
		if err != nil {
			return err
		}
		if int(c) >= len(coverageCodes) {
			return fmt.Errorf("%w: coverage code %d", ErrCorrupt, c)
		}
		doc.Coverage[prefixKey(v)] = coverageCodes[c]
		return nil
	})
	if err != nil {
		return err
	}

	// AS confidence.
	enc.off[wireConfidence] = d.pos
	if n, err = d.count("AS confidence", 9); err != nil {
		return err
	}
	if n > 0 {
		doc.ASConfidence = make(map[string]float64, n)
	}
	err = d.deltaSeq("confidence ASN", n, math.MaxUint32, func(v uint64) error {
		f, err := d.float("confidence value")
		if err != nil {
			return err
		}
		doc.ASConfidence[keys.asn(v)] = f
		return nil
	})
	if err != nil {
		return err
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
	return nil
}

// refShareSections is the parent's shareSections: it replaces the sections of e's document that are equal to
// prev's with prev's backing arrays/maps, so consecutive epochs of a stable
// map share storage. Returns the bitmask of shared sections; ingest uses it
// to reuse the derived indexes whose inputs did not change.
//
// Equality is defined on the canonical encoding. The six numeric sections
// hold nothing but sorted keys and payloads, and each has exactly one
// canonical encoding, so two of them are equal iff their byte spans are.
// Servers and mappings refer into the document's string table by index:
// their spans mean nothing apart from the table, so they compare as
// decoded values.
func refShareSections(e, prev *Epoch) uint {
	doc, pdoc := e.Doc, prev.Doc
	same := func(wire int) bool {
		return bytes.Equal(e.off.span(e.Encoded, wire), prev.off.span(prev.Encoded, wire))
	}
	var shared uint
	if same(wireActives) {
		doc.ActivePrefixes, e.actives = pdoc.ActivePrefixes, prev.actives
		shared |= secActives
	}
	if same(wireHitRates) {
		doc.PrefixHitRates = pdoc.PrefixHitRates
		shared |= secHitRates
	}
	if same(wireActivity) {
		doc.ASActivity = pdoc.ASActivity
		shared |= secActivity
	}
	if same(wireSources) {
		doc.Sources = pdoc.Sources
		shared |= secSources
	}
	if same(wireCoverage) {
		doc.Coverage = pdoc.Coverage
		shared |= secCoverage
	}
	if same(wireConfidence) {
		doc.ASConfidence = pdoc.ASConfidence
		shared |= secConfidence
	}
	if slices.Equal(doc.Servers, pdoc.Servers) {
		doc.Servers = pdoc.Servers
		shared |= secServers
	}
	if slices.Equal(doc.Mappings, pdoc.Mappings) {
		doc.Mappings = pdoc.Mappings
		shared |= secMappings
	}
	return shared
}
