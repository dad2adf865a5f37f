package mapstore

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"math"
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
// equal. Two draws change nothing: they once changed the grades and
// confidences codec version 1 carried, and they stay so that each seed
// draws the days it always has.
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
	tornTail []byte
}

var journalShapes = []journalShape{
	{name: "journal only"},
	{name: "torn tail", tornTail: []byte{0xFF, 0xEE, 0xDD, 0x00, 0x10}},
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

// openJournal journals docs and meshes, smashes the shape's torn tail onto
// the journal and reopens the directory. It returns the store that wrote the
// journal along with what reopening found.
func openJournal(t *testing.T, docs []*core.MapDocument, meshes []*core.MeshDocument, shape journalShape) (*Store, *wal.WAL, *wal.Recovery) {
	t.Helper()
	s, mem := journalDocs(t, docs, meshes)
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
// seeded 16-epoch journals in every shape, map-only and with a seeded mesh
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

// shareSectionsMaps is the sharing rule as it stood when sections were
// compared as decoded values, kept verbatim (minus the aliasing, which the
// comparison does not need) as the oracle for the byte-span rule.
func shareSectionsMaps(doc, prev *core.MapDocument) uint {
	var shared uint
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
	if sawShared != secAll || sawCopied != secAll {
		t.Errorf("seeded days too tame: sections seen shared %08b, seen copied %08b, want all", sawShared, sawCopied)
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

// TestMapOnlyJournalBytesMatchParent is the golden of the journal format: the
// journal a map-only store leaves for seeds 1 and 7's first six days, byte
// for byte, and that journal recovers. Its digests move only with the
// on-disk format, and a format change bumps CodecVersion (or
// wal.FormatVersion), so that a journal an older binary wrote is refused
// (TestVersionOneJournalRefused), never read as the new format.
func TestMapOnlyJournalBytesMatchParent(t *testing.T) {
	defer obs.Swap(obs.Swap(obs.NewSet()))
	for _, tc := range []struct {
		seed    int64
		journal string
	}{
		{1, "80327f6698042cff16fb6a442b3710d87fceca540558d2690b8670c91570ba19"},
		{7, "0c9578b17c69ab4a33110c4a1d2ffd253ce4b2d6cf8498a8aa9341eac283cd9d"},
	} {
		_, mem := journalDocs(t, seededDocs(tc.seed, 6), nil)
		data, err := mem.ReadFile("wal/journal.itwl")
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.journal {
			t.Errorf("seed %d: journal.itwl (%d bytes) has SHA-256 %s, the golden %s", tc.seed, len(data), got, tc.journal)
		}
		w, rec, err := wal.Open(wal.Options{Dir: "wal", FS: mem})
		if err != nil {
			t.Fatal(err)
		}
		got, err := RecoverStore(w, rec)
		if err != nil {
			t.Fatalf("seed %d: recovering the journal: %v", tc.seed, err)
		}
		if got.Len() != 6 || got.Latest().MeshDoc != nil {
			t.Errorf("seed %d: recovered %d epochs", tc.seed, got.Len())
		}
	}
}

// TestVersionOneJournalRefused: a journal whose record holds a map as codec
// version 1 wrote it frames and checksums like any other, and recovery
// refuses it by its version, naming the epoch, rather than read it.
func TestVersionOneJournalRefused(t *testing.T) {
	defer obs.Swap(obs.Swap(obs.NewSet()))
	rec, err := encodeRecord(sampleDoc(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mem := wal.NewMemFS()
	w, _, err := wal.Open(wal.Options{Dir: "wal", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, versionOne(rec)); err != nil {
		t.Fatal(err)
	}
	w, replay, err := wal.Open(wal.Options{Dir: "wal", FS: mem})
	if err != nil || len(replay.Records) != 1 {
		t.Fatalf("the WAL does not replay the record: %v", err)
	}
	if _, err := RecoverStore(w, replay); !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), "epoch 0") {
		t.Errorf("RecoverStore = %v, want ErrVersion naming epoch 0", err)
	}
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
