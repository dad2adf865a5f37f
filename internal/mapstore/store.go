package mapstore

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"itmap/internal/core"
	"itmap/internal/mapstore/wal"
	"itmap/internal/obs"
	"itmap/internal/obs/history"
	"itmap/internal/simtime"
	"itmap/internal/topology"
)

// Epoch is one immutable version of the traffic map: a measurement sweep's
// document plus the derived indexes queries need. Nothing in an Epoch is
// mutated after Append returns, so readers share it freely.
type Epoch struct {
	// ID is the epoch's position in the store (0-based, dense).
	ID int
	// At is the simulated time the sweep behind this epoch ran.
	At simtime.Time
	// Doc is the canonical document. Sections equal to the previous
	// epoch's are shared structurally (same backing arrays), so a stable
	// infrastructure costs nothing per epoch.
	Doc *core.MapDocument
	// Encoded is the document in the ITMB binary format, the map's span of
	// the epoch's record. The binary API route serves this slice directly —
	// zero copies, zero re-encodes.
	Encoded []byte
	// ETag is the strong entity tag for every response scoped to this epoch,
	// mesh routes included, derived from the record (so it is byte-identical
	// across runs and worker counts).
	ETag string
	// SharedSections counts how many of the document's sections were
	// reused from the previous epoch at ingest.
	SharedSections int

	// MeshDoc, when present, is the epoch's user↔user mesh matrix: the
	// previous epoch's, structurally shared, when the two encode alike.
	MeshDoc *core.MeshDocument

	// record is the epoch's journal record: the map's ITMB encoding, then
	// the mesh's when there is one. It is what EncodeDocument and
	// EncodeMeshDocument would produce back to back, or, for an epoch
	// recovered from the WAL, the journaled payload itself (adopted, not
	// re-encoded; it aliases the file image the WAL holds). off locates its
	// sections; the next append compares its own sections against them (see
	// shareSections).
	record []byte
	off    sectionOffsets

	// Derived query indexes, built once at ingest; per-AS facts are read
	// off Doc's own maps.
	totalAct   float64                   // see activityTotal
	ranked     []ASRank                  // by activity desc, ASN asc
	mappingsBy map[uint32][]int          // client ASN → indexes into Doc.Mappings
	hostPop    map[uint32]int            // serving host AS → #client ASes mapped to it
	serverAt   map[topology.PrefixID]int // serving prefix → index into Doc.Servers
	meshWorst  []MeshRank                // mesh pairs by mean RTT desc, key asc

	// cache holds encoded response bodies scoped to this epoch. Epochs are
	// immutable, so entries never invalidate; appends leave them untouched.
	cache *responseCache
	// frags holds, per JSON field a section backs, the field's bytes once a
	// whole-map fill has rendered them (see renderMap): the epoch's own slot,
	// or the previous epoch's, adopted with a shared section.
	frags [core.JSONFields]*atomic.Pointer[[]byte]
	slots [core.JSONFields]atomic.Pointer[[]byte]
}

// ASRank is one AS's position in an epoch's activity ranking.
type ASRank struct {
	ASN      uint32  `json:"asn"`
	Activity float64 `json:"activity"`
	Share    float64 `json:"share"`
}

// sectionCount is how many shareable sections a document has: every wire
// section but the string table, which has no content of its own.
const sectionCount = wireSections - 1

// Section bits name the shareable sections — bit = wire index past the
// string table — so ingest can reuse exactly the derived indexes whose inputs
// an append left untouched.
const (
	secActives  = 1 << (wireActives - wireActives)
	secHitRates = 1 << (wireHitRates - wireActives)
	secActivity = 1 << (wireActivity - wireActives)
	secSources  = 1 << (wireSources - wireActives)
	secServers  = 1 << (wireServers - wireActives)
	secMappings = 1 << (wireMappings - wireActives)

	secAll = 1<<sectionCount - 1

	// secMesh is the record's mesh span, shared past the document's sections.
	secMesh = 1 << (wireMesh - wireActives)
)

// fieldSection is the section each core.JSONField of the map renders, in
// field order, none for head and tail: a field's bytes are the previous
// epoch's exactly when its section is shared.
var fieldSection = [core.JSONFields]uint{0, secActives, secHitRates, secActivity, secSources, secServers, secMappings, 0}

// epochList is the store's immutable snapshot: a prefix-stable slice of
// epochs. Append publishes a fresh list; readers keep using the one they
// loaded. The list also carries the store-scoped response cache and its
// generation ETag: responses that span epochs (activity series, the epoch
// listing) cache here, and because Append publishes a fresh list, those
// entries invalidate by construction — no locks, no invalidation scan.
type epochList struct {
	epochs []*Epoch
	etag   string
	cache  *responseCache
}

// Store is the in-memory, epoch-versioned map store. Ingestion is
// copy-on-write: Append builds a new immutable epoch plus a new epoch list
// and atomically swaps it in, so concurrent readers never take a lock and
// never observe a half-ingested epoch. Writers serialize among themselves.
type Store struct {
	mu  sync.Mutex // serializes Append
	cur atomic.Pointer[epochList]

	// wal, when attached, journals every epoch's canonical encoding before
	// it is published (see walstore.go).
	//itm:guardedby mu
	wal *wal.WAL
}

// NewStore returns an empty store. It declares every family the ingest,
// codec, cache and HTTP paths touch, so a fresh store's stable exposition
// (and the declared-families audit test) carries them before the first
// append or request.
func NewStore() *Store {
	obs.Declare(epochsIngested, sectionsShared, sectionsCopied, epochBytes,
		meshEpochs, meshShared, meshSectionBytes, codecEncoded, codecDecoded,
		cacheHits, cacheMisses, cacheFills, cacheNotModified, cacheBypass,
		cacheBytesServed, cachePrebaked)
	obs.DeclareHTTPMetrics()
	history.DeclareMetrics()
	s := &Store{}
	s.cur.Store(&epochList{etag: storeETag(0, ""), cache: newResponseCache()})
	return s
}

// The ingest and codec families.
var (
	epochsIngested = obs.NewCounter("itm_mapstore_epochs_total", "Epochs ingested into the map store.")
	sectionsShared = obs.NewCounter("itm_mapstore_sections_shared_total",
		"Document sections structurally shared with the previous epoch.")
	sectionsCopied = obs.NewCounter("itm_mapstore_sections_copied_total",
		"Document sections that changed and so kept their own storage.")
	// Both size histograms span tiny test worlds through full-scale documents.
	epochBytes = obs.NewHistogram("itm_mapstore_epoch_bytes",
		"Encoded (ITMB) size of ingested epochs, in bytes.", epochBytesBuckets)
	meshEpochs = obs.NewCounter("itm_mapstore_mesh_epochs_total", "Epochs ingested carrying a fresh mesh matrix.")
	meshShared = obs.NewCounter("itm_mapstore_mesh_shared_total",
		"Mesh sections structurally shared with the previous epoch.")
	meshSectionBytes = obs.NewHistogram("itm_mapstore_mesh_bytes",
		"Encoded (ITMB v2) size of ingested mesh matrices, in bytes.", epochBytesBuckets)
	codecEncoded = obs.NewCounter("itm_codec_encoded_bytes_total", "ITMB bytes produced by document encodes.")
	codecDecoded = obs.NewCounter("itm_codec_decoded_bytes_total",
		"ITMB bytes consumed by successful document decodes.")
)

var epochBytesBuckets = []float64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}

// Len returns the number of epochs.
func (s *Store) Len() int { return len(s.cur.Load().epochs) }

// Snapshot returns the current epoch list. The slice is immutable — the
// store never mutates a published list — so callers may iterate it without
// holding any lock while writers keep appending.
func (s *Store) Snapshot() []*Epoch { return s.cur.Load().epochs }

// Epoch returns one epoch by ID.
func (s *Store) Epoch(id int) (*Epoch, bool) { return epochAt(s.Snapshot(), id) }

// Latest returns the newest epoch, or nil for an empty store.
//
//itmlint:allow deadexport benchmark/_tracer, a module of its own the loader does not see, picks its request targets from the newest epoch through it
func (s *Store) Latest() *Epoch {
	es := s.Snapshot()
	if len(es) == 0 {
		return nil
	}
	return es[len(es)-1]
}

// AppendMap ingests a traffic map built by core.BuildMap. The third
// argument is ignored: kept for benchmark/_tracer; ROADMAP item 7b deletes
// it. The map's document is handed over; do not mutate it afterwards.
//
//itmlint:allow deadexport benchmark/_tracer, a module of its own the loader does not see, journals map-only epochs through it
func (s *Store) AppendMap(at simtime.Time, m *core.TrafficMap, _ any) (*Epoch, error) {
	return s.append(at, ingest{doc: m.Document()})
}

// AppendMapMesh is AppendMap plus the epoch's user↔user mesh matrix, as
// produced by a vantage campaign; its third argument is ignored the same
// way. The map's document and the mesh are handed over; do not mutate them
// afterwards.
func (s *Store) AppendMapMesh(at simtime.Time, m *core.TrafficMap, _ any, mesh *core.MeshDocument) (*Epoch, error) {
	return s.append(at, ingest{doc: m.Document(), mesh: mesh})
}

// Append ingests a serialized map document (e.g. an imported JSON export or
// a decoded ITMB blob). The document is normalized; the caller must not
// mutate it afterwards.
func (s *Store) Append(at simtime.Time, doc *core.MapDocument) (*Epoch, error) {
	return s.append(at, ingest{doc: doc})
}

// ingest is what one append hands the store: the map document and
// optionally a mesh document. rec, when set, is the record doc and mesh
// were just strictly decoded from (recovery). The decoders only accept the
// canonical encoding of the document they return — a Normalize fixed point
// that re-encodes to the same bytes — so the record in hand is adopted and
// neither step is repeated. Every other caller leaves it unset.
type ingest struct {
	doc  *core.MapDocument
	mesh *core.MeshDocument
	rec  encoding
}

// append is the one ingest path, and both layers take the same four steps
// through it: normalize and encode the record unless it came along, share
// with the previous epoch wherever canonical byte spans are equal, derive
// ETag and query indexes for what is new, prebake.
func (s *Store) append(at simtime.Time, in ingest) (*Epoch, error) {
	doc, mesh, rec := in.doc, in.mesh, in.rec
	if doc == nil {
		return nil, fmt.Errorf("mapstore: nil document")
	}
	if rec.bytes == nil {
		doc.Normalize()
		if mesh != nil {
			mesh.Normalize()
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur.Load()
	e := &Epoch{ID: len(old.epochs), At: at, Doc: doc, MeshDoc: mesh, cache: newResponseCache()}
	var prev *Epoch
	if len(old.epochs) > 0 {
		// Epoch times must advance strictly: a sweep re-ingested at the
		// same simulated time is a caller bug, not a new epoch.
		prev = old.epochs[len(old.epochs)-1]
		if !prev.At.Before(at) {
			return nil, fmt.Errorf("mapstore: epoch time %v does not advance past %v", at, prev.At)
		}
	}
	if rec.bytes == nil {
		var err error
		if rec, err = encodeRecord(doc, mesh); err != nil {
			return nil, err
		}
	}
	e.record, e.off = rec.bytes, rec.off

	// The encodings are pure functions of the documents, so equal bytes
	// prove equal content: whatever matches the previous epoch keeps the
	// previous epoch's storage and everything derived from it.
	var shared uint
	if prev != nil {
		shared = shareSections(e, prev)
		e.SharedSections = bits.OnesCount(shared & secAll)
		if bytes.Equal(e.record, prev.record) {
			// Identical re-ingest: one copy of the bytes serves both epochs.
			e.record = prev.record
		}
	}
	for f, sec := range fieldSection {
		switch {
		case shared&sec != 0:
			e.frags[f] = prev.frags[f]
		case sec != 0:
			e.frags[f] = &e.slots[f]
		}
	}
	end := e.off[wireMesh]
	e.Encoded = e.record[:end:end]
	e.ETag = epochETag(e.ID, e.record)
	e.buildIndexes(prev, shared)

	// Write-ahead point: everything that can fail has succeeded, nothing is
	// visible yet. Journal + fsync the record — map and mesh under one CRC
	// (decodeRecord is the way back) — and if that fails the epoch is not
	// published, so the WAL never lags the served store.
	if s.wal != nil {
		if err := s.wal.Append(at, e.record); err != nil {
			return nil, fmt.Errorf("mapstore: journal epoch %d: %w", e.ID, err)
		}
	}

	// Copy-on-write publish: readers holding the old list are untouched.
	// The fresh list carries a fresh store-scoped cache and a bumped ETag,
	// which is the whole invalidation story for cross-epoch responses.
	next := &epochList{
		epochs: make([]*Epoch, len(old.epochs)+1),
		etag:   storeETag(len(old.epochs)+1, e.ETag),
		cache:  newResponseCache(),
	}
	copy(next.epochs, old.epochs)
	next.epochs[len(old.epochs)] = e
	s.cur.Store(next)

	e.prebake(prev, shared)

	sp := obs.StartSpan("mapstore.append", at).SetAttrInt("epoch", int64(e.ID))
	sp.SetAttrInt("shared_sections", int64(e.SharedSections)).
		SetAttrInt("encoded_bytes", int64(len(e.Encoded))).
		End(at)
	epochsIngested.Inc()
	sectionsShared.Add(uint64(e.SharedSections))
	if e.ID > 0 {
		sectionsCopied.Add(uint64(sectionCount - e.SharedSections))
	}
	epochBytes.Observe(float64(len(e.Encoded)))
	switch {
	case shared&secMesh != 0:
		meshShared.Inc()
	case mesh != nil:
		meshEpochs.Inc()
		meshSectionBytes.Observe(float64(len(e.off.span(e.record, wireMesh))))
	}
	// Telemetry history sample: one capture per append, taken here — a
	// serial point under the ingest lock — so the sample sequence (and the
	// history API's bytes) is a pure function of the campaign.
	history.Observe("epoch", "epoch-"+strconv.Itoa(e.ID), at)
	return e, nil
}

// prebake fills the responses an interactive consumer asks for first —
// the default top-K ranking, the diff against the previous epoch, a fresh
// mesh's worst pairs — through the routes' own renderers, so the very first
// request after an append already hits cached bytes.
func (e *Epoch) prebake(prev *Epoch, shared uint) {
	bake := func(route string, render renderer, q request) {
		entry, created, ok := e.cache.lookup(q.key)
		if !ok || !created {
			return
		}
		entry.fill(route, render, q)
		cachePrebaked.Inc()
	}
	bake("/v1/top", renderTop, request{key: topKey(defaultTopK, len(e.ranked)), e: e, k: defaultTopK})
	if prev != nil {
		bake("/v1/diff/{a}/{b}", renderDiff,
			request{key: diffKey(prev.ID, e.ID, defaultMinShift), e: prev, to: e, minShift: defaultMinShift})
	}
	if e.MeshDoc != nil && shared&secMesh == 0 {
		bake("/v1/latency/top", renderMeshTop, request{key: meshTopKey(defaultTopK, len(e.meshWorst)), e: e, k: defaultTopK})
	}
}

// shareSections replaces the sections of e's document and mesh that are
// equal to prev's with prev's backing arrays/maps, so consecutive epochs of
// a stable map share storage. Returns the bitmask of shared sections; ingest
// uses it to reuse the derived indexes whose inputs did not change.
//
// Equality is defined on the record. The actives, the keyed sections and the
// mesh hold nothing but sorted keys and payloads, and each has exactly one
// canonical encoding, so two of them are equal iff their byte spans are.
// Servers and mappings refer into the document's string table by index:
// their spans mean nothing apart from the table, so they compare as
// decoded values.
func shareSections(e, prev *Epoch) uint {
	doc, pdoc := e.Doc, prev.Doc
	same := func(wire int) bool {
		return bytes.Equal(e.off.span(e.record, wire), prev.off.span(prev.record, wire))
	}
	var shared uint
	if same(wireActives) {
		doc.ActivePrefixes = pdoc.ActivePrefixes
		shared |= secActives
	}
	for i := range keyedSections {
		if sec := &keyedSections[i]; same(sec.wire) {
			sec.field.share(doc, pdoc)
			shared |= 1 << (sec.wire - wireActives)
		}
	}
	if slices.Equal(doc.Servers, pdoc.Servers) {
		doc.Servers = pdoc.Servers
		shared |= secServers
	}
	if slices.Equal(doc.Mappings, pdoc.Mappings) {
		doc.Mappings = pdoc.Mappings
		shared |= secMappings
	}
	if e.MeshDoc != nil && same(wireMesh) {
		e.MeshDoc = prev.MeshDoc
		shared |= secMesh
	}
	return shared
}
