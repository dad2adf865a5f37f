package mapstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"itmap/internal/core"
	"itmap/internal/mapstore/wal"
	"itmap/internal/obs"
	"itmap/internal/order"
	"itmap/internal/randx"
	"itmap/internal/simtime"
	"itmap/internal/topology"
)

// cloneDoc deep-copies a document, so a test can hand one copy to a store
// (which aliases shared sections into it) and keep another pristine.
func cloneDoc(d *core.MapDocument) *core.MapDocument {
	c := *d
	c.ActivePrefixes = slices.Clone(d.ActivePrefixes)
	c.PrefixHitRates = maps.Clone(d.PrefixHitRates)
	c.ASActivity = maps.Clone(d.ASActivity)
	c.Sources = maps.Clone(d.Sources)
	c.Servers = slices.Clone(d.Servers)
	c.Mappings = slices.Clone(d.Mappings)
	return &c
}

// seededDocs returns n consecutive days of a small map. From one day to the
// next a seed-chosen subset of the document's six sections changes —
// sometimes none, an identical re-ingest — so consecutive epochs share
// anything from no section to all of them. A new server may bring an org
// that sorts ahead of every other string, which renumbers the whole string
// table: the mappings section then differs in bytes while its values stay
// equal. The changes the two retired sections once drew are drawn still, and
// dropped, so each seed draws the days it always has.
func seededDocs(seed int64, n int) []*core.MapDocument {
	rng := randx.New(seed)
	cur := benchDoc(300)
	ases := order.Keys(cur.ASActivity)
	prefix := func() topology.PrefixID { return cur.ActivePrefixes[rng.Intn(len(cur.ActivePrefixes))] }
	asn := func() topology.ASN { return ases[rng.Intn(len(ases))] }
	docs := []*core.MapDocument{cloneDoc(cur)}
	for day := 1; day < n; day++ {
		if rng.Bool(0.4) {
			cur.ActivePrefixes = append(cur.ActivePrefixes, 172<<16|16<<8|topology.PrefixID(day))
		}
		if rng.Bool(0.4) {
			cur.PrefixHitRates[prefix()] = rng.Float64()
		}
		if rng.Bool(0.4) {
			cur.ASActivity[asn()] += 1 + rng.Float64()
		}
		if rng.Bool(0.4) {
			cur.Sources[asn()] = core.ActivitySource(rng.Intn(core.ActivitySources))
		}
		if rng.Bool(0.4) { // a grade: a prefix and one of four codes
			prefix()
			rng.Intn(4)
		}
		if rng.Bool(0.4) { // a confidence
			asn()
			rng.Float64()
		}
		if rng.Bool(0.4) {
			org := "org-0"
			if rng.Bool(0.5) {
				org = fmt.Sprintf("aaa-org-%d", day)
			}
			cur.Servers = append(cur.Servers, core.ServerDocument{
				Prefix: prefix(), HostAS: 64500, OwnerAS: uint32(64500 + day), Org: org, City: "frankfurt", Country: "DE",
			})
		}
		if rng.Bool(0.4) {
			cur.Mappings = append(cur.Mappings, core.MappingDocument{
				Domain: "svc-0.example", ClientAS: uint32(70000 + day), Serving: prefix(),
			})
		}
		docs = append(docs, cloneDoc(cur))
	}
	return docs
}

// seededMeshes returns n days of mesh history to journal beside seededDocs:
// a day carries no mesh, the mesh of the last day that had one unchanged
// (shared at ingest when that was yesterday), or a changed one.
func seededMeshes(seed int64, n int) []*core.MeshDocument {
	rng := randx.New(seed ^ 0x6d657368)
	cur := sampleMesh()
	out := make([]*core.MeshDocument, n)
	for day := range out {
		if rng.Bool(0.4) {
			p := &cur.Pairs[rng.Intn(len(cur.Pairs))]
			p.Probes++
			p.MeanRTT += rng.Float64()
		}
		if rng.Bool(0.2) {
			cur.Pairs = append(cur.Pairs, core.MeshPairDocument{
				Lo: 3000, Hi: uint32(4000 + day), Path: []uint32{3000, 0, uint32(4000 + day)},
				Probes: 4, Lost: 1, MinRTT: 5, MeanRTT: 6 + rng.Float64(), MaxRTT: 9, Confidence: 0.5,
			})
		}
		if rng.Bool(0.25) {
			continue
		}
		c := *cur
		c.Pairs = slices.Clone(cur.Pairs)
		out[day] = &c
	}
	return out
}

// journalShape is one way a 16-epoch WAL directory can look at boot.
type journalShape struct {
	name     string
	legacy   int // epochs an older binary compacted into snapshot.itwl
	tornTail []byte
}

var journalShapes = []journalShape{
	{name: "journal only"},
	{name: "legacy snapshot + journal", legacy: 6},
	{name: "torn tail", tornTail: []byte{0xFF, 0xEE, 0xDD, 0x00, 0x10}},
}

// walRecords splits a whole WAL file image into its records, framing and all.
func walRecords(t *testing.T, data []byte) [][]byte {
	t.Helper()
	recs, valid, err := wal.ScanRecords(data)
	if err != nil || valid != len(data) {
		t.Fatalf("not a whole WAL file: %d of %d bytes scan, %v", valid, len(data), err)
	}
	var out [][]byte
	for off := len(wal.Magic) + 1; len(out) < len(recs); {
		n := 8 + int(binary.LittleEndian.Uint32(data[off:]))
		out = append(out, data[off:off+n])
		off += n
	}
	return out
}

// walFile is the WAL file image holding records.
func walFile(records ...[]byte) []byte {
	return slices.Concat(append([][]byte{wal.Magic[:], {wal.FormatVersion}}, records...)...)
}

// plant writes a file into a WAL directory the way an older binary left it.
func plant(t *testing.T, mem *wal.MemFS, name string, data []byte) {
	t.Helper()
	h, err := mem.Create("wal/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write(data); err != nil {
		t.Fatal(err)
	}
}

// journalDocs appends docs (and day by day the meshes that are not nil)
// through a store into a fresh in-memory WAL directory, and returns the
// store and the directory, "crashed" (no Close).
func journalDocs(t *testing.T, docs []*core.MapDocument, meshes []*core.MeshDocument) (*Store, *wal.MemFS) {
	t.Helper()
	mem := wal.NewMemFS()
	w, _, err := wal.Open(wal.Options{Dir: "wal", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	s.AttachWAL(w)
	for d, doc := range docs {
		var mesh *core.MeshDocument
		if meshes != nil {
			mesh = meshes[d]
		}
		if _, err := s.append(simtime.Time(d)*simtime.Day, ingest{doc: cloneDoc(doc), mesh: mesh}); err != nil {
			t.Fatalf("append day %d: %v", d, err)
		}
	}
	return s, mem
}

// openJournal journals docs and meshes, splits the shape's legacy epochs off
// into a snapshot, smashes its torn tail onto the journal and reopens the
// directory. It returns the store that wrote the journal along with what
// reopening found.
func openJournal(t *testing.T, docs []*core.MapDocument, meshes []*core.MeshDocument, shape journalShape) (*Store, *wal.WAL, *wal.Recovery) {
	t.Helper()
	s, mem := journalDocs(t, docs, meshes)
	if shape.legacy > 0 {
		journal, err := mem.ReadFile("wal/journal.itwl")
		if err != nil {
			t.Fatal(err)
		}
		recs := walRecords(t, journal)
		plant(t, mem, "snapshot.itwl", walFile(recs[:shape.legacy]...))
		plant(t, mem, "journal.itwl", walFile(recs[shape.legacy:]...))
	}
	if len(shape.tornTail) > 0 {
		h, err := mem.OpenAppend("wal/journal.itwl")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Write(shape.tornTail); err != nil {
			t.Fatal(err)
		}
	}
	w, rec, err := wal.Open(wal.Options{Dir: "wal", FS: mem})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	if len(rec.Records) != len(docs) || rec.TruncatedBytes != int64(len(shape.tornTail)) {
		t.Fatalf("journal in shape %q replayed %d records (want %d), cut %d torn bytes",
			shape.name, len(rec.Records), len(docs), rec.TruncatedBytes)
	}
	return s, w, rec
}

// TestRecoverStoreMatchesReencodeOracle pins recovery-by-adoption against the
// store that wrote the journal — a truer reference than re-encoding what was
// journaled, which could only show the codec agreeing with itself: over
// seeded 16-epoch journals in every shape, map-only (what every journal
// written before the mesh was journaled holds) and with a seeded mesh
// history, and with the decode-ahead on one worker and on four, the
// recovered store has the writer's bytes, ETags, sharing, documents and
// served bodies.
func TestRecoverStoreMatchesReencodeOracle(t *testing.T) {
	defer obs.Swap(obs.Swap(obs.NewSet()))
	histories := []struct {
		name   string
		meshes func(seed int64) []*core.MeshDocument
	}{
		{"map only", func(int64) []*core.MeshDocument { return make([]*core.MeshDocument, 16) }},
		{"with meshes", func(seed int64) []*core.MeshDocument { return seededMeshes(seed, 16) }},
	}
	var sawFresh, sawShared, sawAbsent bool
	for _, hist := range histories {
		for _, shape := range journalShapes {
			for seed := int64(1); seed <= 3; seed++ {
				docs, meshes := seededDocs(seed, 16), hist.meshes(seed)
				for _, workers := range []int{1, 4} {
					name := fmt.Sprintf("%s, %s, seed %d, %d workers", hist.name, shape.name, seed, workers)
					want, w, rec := openJournal(t, docs, meshes, shape)
					got, err := recoverStore(w, rec, workers)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got.Len() != want.Len() {
						t.Fatalf("%s: recovered %d epochs, the writer %d", name, got.Len(), want.Len())
					}
					for i, e := range got.Snapshot() {
						o, _ := want.Epoch(i)
						if i > 0 {
							prev, _ := want.Epoch(i - 1)
							gotPrev, _ := got.Epoch(i - 1)
							sawFresh = sawFresh || o.MeshDoc != nil && o.MeshDoc != prev.MeshDoc
							sawShared = sawShared || o.MeshDoc != nil && o.MeshDoc == prev.MeshDoc
							sawAbsent = sawAbsent || o.MeshDoc == nil && prev.MeshDoc != nil
							if (e.MeshDoc == gotPrev.MeshDoc) != (o.MeshDoc == prev.MeshDoc) {
								t.Errorf("%s: epoch %d shares its mesh %v, the writer's %v", name, i, e.MeshDoc == gotPrev.MeshDoc, o.MeshDoc == prev.MeshDoc)
							}
						}
						if !bytes.Equal(e.record, o.record) || !bytes.Equal(e.record, rec.Records[i].Payload) || !bytes.Equal(e.Encoded, o.Encoded) {
							t.Errorf("%s: epoch %d record is not the writer's and the journaled payload", name, i)
						}
						if e.ETag != o.ETag {
							t.Errorf("%s: epoch %d ETag %s, the writer's %s", name, i, e.ETag, o.ETag)
						}
						if e.SharedSections != o.SharedSections {
							t.Errorf("%s: epoch %d shares %d sections, the writer's %d", name, i, e.SharedSections, o.SharedSections)
						}
						if !reflect.DeepEqual(e.Doc, o.Doc) {
							t.Errorf("%s: epoch %d document differs from the writer's", name, i)
						}
						if (e.MeshDoc != nil) != (meshes[i] != nil) || !reflect.DeepEqual(e.MeshDoc, o.MeshDoc) || !reflect.DeepEqual(e.meshWorst, o.meshWorst) {
							t.Errorf("%s: epoch %d mesh differs from the writer's", name, i)
						}
					}
					wantBodies := driveFixedRequests(t, want)
					for p, body := range driveFixedRequests(t, got) {
						if body != wantBodies[p] {
							t.Errorf("%s: %s differs:\n writer:    %.120q\n recovered: %.120q", name, p, wantBodies[p], body)
						}
					}
					// Still one append path: the next epoch journals after the
					// recovered tail and shares against adopted bytes.
					last := len(docs) - 1
					e, err := got.append(simtime.Time(len(docs))*simtime.Day, ingest{doc: cloneDoc(docs[last]), mesh: meshes[last]})
					if err != nil {
						t.Fatalf("%s: append after recovery: %v", name, err)
					}
					recovered, _ := got.Epoch(last)
					meshShared := e.MeshDoc != nil && e.MeshDoc == recovered.MeshDoc
					if e.ID != len(docs) || w.Len() != len(docs)+1 || e.SharedSections != sectionCount || meshShared != (meshes[last] != nil) {
						t.Errorf("%s: append after recovery: epoch %d, WAL %d records, %d shared sections, mesh shared %v",
							name, e.ID, w.Len(), e.SharedSections, meshShared)
					}
				}
			}
		}
	}
	if !sawFresh || !sawShared || !sawAbsent {
		t.Errorf("seeded mesh histories too tame: fresh %v, shared %v, absent %v after day 0", sawFresh, sawShared, sawAbsent)
	}
}

// secRetired are the retired sections' bits: no document holds anything
// there, so any two documents are equal in them.
const secRetired = 1<<(wireRetiredGrades-wireActives) | 1<<(wireRetiredConfidence-wireActives)

// shareSectionsMaps is the sharing rule as it stood when sections were
// compared as decoded values, kept verbatim (minus the aliasing, which the
// comparison does not need, and the retired sections, always equal) as the
// oracle for the byte-span rule.
func shareSectionsMaps(doc, prev *core.MapDocument) uint {
	shared := uint(secRetired)
	if slices.Equal(doc.ActivePrefixes, prev.ActivePrefixes) {
		shared |= secActives
	}
	if maps.Equal(doc.PrefixHitRates, prev.PrefixHitRates) {
		shared |= secHitRates
	}
	if maps.Equal(doc.ASActivity, prev.ASActivity) {
		shared |= secActivity
	}
	if maps.Equal(doc.Sources, prev.Sources) {
		shared |= secSources
	}
	if slices.Equal(doc.Servers, prev.Servers) {
		shared |= secServers
	}
	if slices.Equal(doc.Mappings, prev.Mappings) {
		shared |= secMappings
	}
	return shared
}

// encodedEpoch is the part of an Epoch shareSections reads.
func encodedEpoch(t *testing.T, doc *core.MapDocument) *Epoch {
	t.Helper()
	doc.Normalize()
	rec, err := encodeRecord(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Epoch{Doc: doc, record: rec.bytes, off: rec.off}
}

// TestShareSectionsBytesMatchesMaps: comparing canonical byte spans reaches
// the decision comparing decoded maps did, on every section of every
// consecutive epoch pair — with one intended difference, on a float payload
// the pipeline never emits: +0 against -0 no longer shares (different bytes,
// and different JSON). A NaN, the other value maps.Equal and bytes disagree
// on, no longer encodes at all.
func TestShareSectionsBytesMatchesMaps(t *testing.T) {
	var sawShared, sawCopied uint
	for seed := int64(1); seed <= 8; seed++ {
		docs := seededDocs(seed, 16)
		for d := 1; d < len(docs); d++ {
			want := shareSectionsMaps(encodedEpoch(t, cloneDoc(docs[d])).Doc, encodedEpoch(t, cloneDoc(docs[d-1])).Doc)
			got := shareSections(encodedEpoch(t, cloneDoc(docs[d])), encodedEpoch(t, cloneDoc(docs[d-1])))
			if got != want {
				t.Errorf("seed %d, day %d: byte spans share sections %08b, decoded values %08b", seed, d, got, want)
			}
			sawShared |= got
			sawCopied |= ^got & secAll
		}
	}
	if sawShared != secAll || sawCopied != secAll&^secRetired {
		t.Errorf("seeded days too tame: sections seen shared %08b, seen copied %08b, want all, and all but the retired", sawShared, sawCopied)
	}

	withActivity := func(v float64) *core.MapDocument {
		doc := sampleDoc()
		doc.ASActivity[64500] = v
		return doc
	}
	byMaps := shareSectionsMaps(withActivity(0), withActivity(math.Copysign(0, -1)))&secActivity != 0
	bySpan := shareSections(encodedEpoch(t, withActivity(0)), encodedEpoch(t, withActivity(math.Copysign(0, -1))))&secActivity != 0
	if !byMaps || bySpan {
		t.Errorf("+0 against -0: shared by maps %v (want true), by byte span %v (want false)", byMaps, bySpan)
	}
}

// TestMapOnlyJournalBytesMatchParent pins that journaling the mesh, and
// dropping compaction, changed nothing for an epoch without a mesh: the
// journal a map-only store leaves is, byte for byte, the journal older
// commits left for the same documents with compaction off — so every such
// journal is a journal in the current format, and the same test recovers
// one — once the grades and confidences those documents held are gone.
// Digests of the journals commit 7d2d025 wrote with compaction off, each
// record's two retired sections then cut to their zero count and the
// records framed again.
func TestMapOnlyJournalBytesMatchParent(t *testing.T) {
	defer obs.Swap(obs.Swap(obs.NewSet()))
	for _, tc := range []struct {
		seed    int64
		journal string
	}{
		{1, "4a2aba9fdb41addb6cafda76503eb17dabccff22197b963ce8c6ef5acf571843"},
		{7, "4d05ecda965b14ebd6e1b68fc80d19744afd1896d8f499a7afd0d5524ac91eca"},
	} {
		_, mem := journalDocs(t, seededDocs(tc.seed, 6), nil)
		data, err := mem.ReadFile("wal/journal.itwl")
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.journal {
			t.Errorf("seed %d: journal.itwl (%d bytes) has SHA-256 %s, the older commit's, cut, has %s", tc.seed, len(data), got, tc.journal)
		}
		w, rec, err := wal.Open(wal.Options{Dir: "wal", FS: mem})
		if err != nil {
			t.Fatal(err)
		}
		got, err := RecoverStore(w, rec)
		if err != nil {
			t.Fatalf("seed %d: recovering the parent-format journal: %v", tc.seed, err)
		}
		if got.Len() != 6 || got.Latest().MeshDoc != nil {
			t.Errorf("seed %d: recovered %d epochs", tc.seed, got.Len())
		}
	}
}

// TestLegacyWALDirectoryRecovers replays the WAL directory an older binary
// left: testdata/legacy-wal is seed 1's six epochs as commit 7d2d025 wrote
// them compacting every 4 epochs — four in snapshot.itwl, two in
// journal.itwl — when the documents still held the grades and confidences
// since retired, which epochs 2 to 5 do. With each retired section cut to
// its zero count, its records are a journal-only store's for the same
// documents, the snapshot's followed by the journal's. The directory
// recovers that store's epochs, re-encoding the four that held retired
// entries; so does the directory a compaction crash left, whose journal
// still re-holds records the snapshot covers; and appending after recovery
// never touches the snapshot.
func TestLegacyWALDirectoryRecovers(t *testing.T) {
	defer obs.Swap(obs.Swap(obs.NewSet()))
	legacy := map[string][]byte{}
	for name, digest := range map[string]string{
		"snapshot.itwl": "2709edf15f78223ab097fbec9ea317ceb69c13a090c1abb5bfbffed72541b176",
		"journal.itwl":  "2170bbd32c1777538977acb6140c8924a8909fc9e5fb776b29660a652e16bed5",
	} {
		data, err := os.ReadFile("testdata/legacy-wal/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != digest {
			t.Fatalf("testdata/legacy-wal/%s has SHA-256 %s, not the %s commit 7d2d025 wrote", name, got, digest)
		}
		legacy[name] = data
	}
	snapRecs, journalRecs := walRecords(t, legacy["snapshot.itwl"]), walRecords(t, legacy["journal.itwl"])
	if len(snapRecs) != 4 || len(journalRecs) != 2 {
		t.Fatalf("legacy directory holds %d snapshot + %d journal records, want 4 + 2", len(snapRecs), len(journalRecs))
	}
	want, mem := journalDocs(t, seededDocs(1, 6), nil)
	journal, err := mem.ReadFile("wal/journal.itwl")
	if err != nil {
		t.Fatal(err)
	}
	legacyRecs, wantRecs := scanRecords(t, walFile(slices.Concat(snapRecs, journalRecs)...)), scanRecords(t, journal)
	var held []int
	for i, r := range legacyRecs {
		dec := encoding{bytes: r.Payload}
		if err := decodeInto(&core.MapDocument{}, &dec, true); err != nil {
			t.Fatalf("legacy record %d: %v", i, err)
		}
		if dec.retiredEntries() {
			held = append(held, i)
		}
		r.Payload = cutRetired(dec).bytes
		if i >= len(wantRecs) || !reflect.DeepEqual(r, wantRecs[i]) {
			t.Fatalf("legacy record %d, its retired sections emptied, is not a journal-only store's record", i)
		}
	}
	if len(legacyRecs) != len(wantRecs) || !slices.Equal(held, []int{2, 3, 4, 5}) {
		t.Fatalf("%d legacy records, %d written; records %v hold retired entries, want 2 to 5", len(legacyRecs), len(wantRecs), held)
	}

	for _, dir := range []struct {
		name    string
		journal []byte
	}{
		{"as compacted", legacy["journal.itwl"]},
		{"stale tail", walFile(slices.Concat(snapRecs[2:], journalRecs)...)},
	} {
		mem := wal.NewMemFS()
		plant(t, mem, "snapshot.itwl", legacy["snapshot.itwl"])
		plant(t, mem, "journal.itwl", dir.journal)
		w, rec, err := wal.Open(wal.Options{Dir: "wal", FS: mem})
		if err != nil {
			t.Fatalf("%s: %v", dir.name, err)
		}
		got, err := RecoverStore(w, rec)
		if err != nil {
			t.Fatalf("%s: %v", dir.name, err)
		}
		if got.Len() != want.Len() || rec.TruncatedBytes != 0 {
			t.Fatalf("%s: recovered %d epochs (cut %d bytes), want %d", dir.name, got.Len(), rec.TruncatedBytes, want.Len())
		}
		for i, e := range got.Snapshot() {
			o, _ := want.Epoch(i)
			if !bytes.Equal(e.Encoded, o.Encoded) || e.ETag != o.ETag {
				t.Errorf("%s: epoch %d differs from the journal-only store's: ETag %s, want %s", dir.name, i, e.ETag, o.ETag)
			}
			if reencoded := !bytes.Equal(e.record, legacyRecs[i].Payload); reencoded != slices.Contains(held, i) {
				t.Errorf("%s: epoch %d re-encoded %v; only those holding retired entries are", dir.name, i, reencoded)
			}
		}
		h := NewHandler(got)
		for _, i := range held {
			resp := httptest.NewRecorder()
			h.ServeHTTP(resp, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/map/%d", i), nil))
			if m := resp.Body.String(); resp.Code != http.StatusOK || strings.Contains(m, `"coverage"`) || strings.Contains(m, `"as_confidence"`) {
				t.Errorf("%s: /v1/map/%d answers %d with the retired keys: %.200q", dir.name, i, resp.Code, m)
			}
		}
		if _, err := got.Append(6*simtime.Day, seededDocs(1, 7)[6]); err != nil {
			t.Fatalf("%s: append after recovery: %v", dir.name, err)
		}
		if snap, _ := mem.ReadFile("wal/snapshot.itwl"); !bytes.Equal(snap, legacy["snapshot.itwl"]) {
			t.Errorf("%s: appending after recovery changed snapshot.itwl", dir.name)
		}
		if _, rec, err := wal.Open(wal.Options{Dir: "wal", FS: mem}); err != nil || len(rec.Records) != 7 {
			t.Errorf("%s: reopening after the append: %v", dir.name, err)
		}
	}
}

// scanRecords parses a whole WAL file image into its records.
func scanRecords(t *testing.T, data []byte) []wal.Record {
	t.Helper()
	recs, valid, err := wal.ScanRecords(data)
	if err != nil || valid != len(data) {
		t.Fatalf("not a whole WAL file: %d of %d bytes scan, %v", valid, len(data), err)
	}
	return recs
}

// TestCrashInsideMeshRecordNeverTearsTheMeshOff sweeps a power cut across
// every byte of the last map‖mesh record (wal.FaultFS lands the prefix that
// fit, wal.CrashImage is what the reboot finds). The record is one CRC'd
// unit, so wherever the cut falls — inside the map, on the seam, inside the
// mesh — the epoch is gone whole: the recovered store has the epochs that
// were acknowledged, each with the mesh it was journaled with, and never a
// map epoch whose mesh was torn off.
func TestCrashInsideMeshRecordNeverTearsTheMeshOff(t *testing.T) {
	defer obs.Swap(obs.Swap(obs.NewSet()))
	const n = 3
	// journal appends n meshed epochs (no two meshes alike) until one fails,
	// reporting the journal's size after each acknowledged append.
	journal := func(fsys wal.FS, size func() int) (*Store, []int) {
		w, _, err := wal.Open(wal.Options{Dir: "wal", FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		s := NewStore()
		s.AttachWAL(w)
		var sizes []int
		for d := 0; d < n; d++ {
			mesh := sampleMesh()
			mesh.Pairs[0].Probes += d
			if _, err := s.append(simtime.Time(d)*simtime.Day, ingest{doc: docAt(d), mesh: mesh}); err != nil {
				if !errors.Is(err, wal.ErrCrash) {
					t.Fatalf("append day %d: %v", d, err)
				}
				break
			}
			sizes = append(sizes, size())
		}
		return s, sizes
	}
	mem := wal.NewMemFS()
	ref, sizes := journal(mem, func() int {
		data, err := mem.ReadFile("wal/journal.itwl")
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	})
	if len(sizes) != n {
		t.Fatalf("reference run journaled %d epochs, want %d", len(sizes), n)
	}
	last, _ := ref.Epoch(n - 1)
	if recordBytes := sizes[n-1] - sizes[n-2]; recordBytes <= len(last.record) || len(last.record) <= len(last.Encoded) {
		t.Fatalf("last record is %d bytes, epoch record %d, map %d: it does not hold both", recordBytes, len(last.record), len(last.Encoded))
	}

	for cut := sizes[n-2]; cut <= sizes[n-1]; cut++ {
		ffs := wal.NewFaultFS(wal.NewMemFS(), wal.FaultPlan{CrashAfterBytes: int64(cut)})
		before, acked := journal(ffs, func() int { return 0 })
		want := n - 1
		if cut == sizes[n-1] {
			want = n // the whole record fit: no crash, nothing lost
		}
		if len(acked) != want || before.Len() != want {
			t.Fatalf("cut at byte %d: %d appends acknowledged, %d published, want %d", cut, len(acked), before.Len(), want)
		}
		w, rec, err := wal.Open(wal.Options{Dir: "wal", FS: ffs.CrashImage()})
		if err != nil {
			t.Fatalf("cut at byte %d: recovery open: %v", cut, err)
		}
		got, err := RecoverStore(w, rec)
		if err != nil {
			t.Fatalf("cut at byte %d: RecoverStore: %v", cut, err)
		}
		if got.Len() != want || rec.TruncatedBytes != int64(cut-sizes[want-1]) {
			t.Fatalf("cut at byte %d: recovered %d epochs (%d torn bytes cut), want %d", cut, got.Len(), rec.TruncatedBytes, want)
		}
		for i, e := range got.Snapshot() {
			o, _ := ref.Epoch(i)
			if !bytes.Equal(e.record, o.record) || e.MeshDoc == nil || e.ETag != o.ETag {
				t.Fatalf("cut at byte %d: epoch %d came back without the mesh it was journaled with", cut, i)
			}
		}
	}
}
