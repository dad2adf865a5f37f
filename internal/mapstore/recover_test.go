package mapstore

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"itmap/internal/core"
	"itmap/internal/mapstore/wal"
	"itmap/internal/obs"
	"itmap/internal/order"
	"itmap/internal/randx"
	"itmap/internal/simtime"
)

// cloneDoc deep-copies a document, so a test can hand one copy to a store
// (which aliases shared sections into it) and keep another pristine.
func cloneDoc(d *core.MapDocument) *core.MapDocument {
	c := *d
	c.ActivePrefixes = slices.Clone(d.ActivePrefixes)
	c.PrefixHitRates = maps.Clone(d.PrefixHitRates)
	c.ASActivity = maps.Clone(d.ASActivity)
	c.Sources = maps.Clone(d.Sources)
	c.Coverage = maps.Clone(d.Coverage)
	c.ASConfidence = maps.Clone(d.ASConfidence)
	c.Servers = slices.Clone(d.Servers)
	c.Mappings = slices.Clone(d.Mappings)
	return &c
}

// seededDocs returns n consecutive days of a small map. From one day to the
// next a seed-chosen subset of the eight sections changes — sometimes none,
// an identical re-ingest — so consecutive epochs share anything from no
// section to all of them. A new server may bring an org that sorts ahead of
// every other string, which renumbers the whole string table: the mappings
// section then differs in bytes while its values stay equal.
func seededDocs(seed int64, n int) []*core.MapDocument {
	rng := randx.New(seed)
	cur := benchDoc(300)
	ases := order.Keys(cur.ASActivity)
	prefix := func() string { return cur.ActivePrefixes[rng.Intn(len(cur.ActivePrefixes))] }
	asn := func() string { return ases[rng.Intn(len(ases))] }
	docs := []*core.MapDocument{cloneDoc(cur)}
	for day := 1; day < n; day++ {
		if rng.Bool(0.4) {
			cur.ActivePrefixes = append(cur.ActivePrefixes, fmt.Sprintf("172.16.%d.0/24", day))
		}
		if rng.Bool(0.4) {
			cur.PrefixHitRates[prefix()] = rng.Float64()
		}
		if rng.Bool(0.4) {
			cur.ASActivity[asn()] += 1 + rng.Float64()
		}
		if rng.Bool(0.4) {
			cur.Sources[asn()] = sourceCodes[rng.Intn(len(sourceCodes))]
		}
		if rng.Bool(0.4) {
			if cur.Coverage == nil {
				cur.Coverage = map[string]string{}
			}
			cur.Coverage[prefix()] = coverageCodes[rng.Intn(len(coverageCodes))]
		}
		if rng.Bool(0.4) {
			if cur.ASConfidence == nil {
				cur.ASConfidence = map[string]float64{}
			}
			cur.ASConfidence[asn()] = rng.Float64()
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

// journalShape is one way a 16-epoch WAL directory can look at boot.
type journalShape struct {
	name         string
	compactEvery int
	tornTail     []byte
}

var journalShapes = []journalShape{
	{name: "journal only", compactEvery: -1},
	{name: "snapshot + journal", compactEvery: 6},
	{name: "torn tail", compactEvery: -1, tornTail: []byte{0xFF, 0xEE, 0xDD, 0x00, 0x10}},
}

// openJournal journals docs through a store into a fresh in-memory WAL
// directory, "crashes" (no Close), smashes the shape's torn tail onto the
// journal and reopens it. Every call builds the same bytes, so each recovery
// under comparison gets a directory of its own.
func openJournal(t *testing.T, docs []*core.MapDocument, shape journalShape) (*wal.WAL, *wal.Recovery) {
	t.Helper()
	mem := wal.NewMemFS()
	opts := wal.Options{Dir: "wal", FS: mem, CompactEvery: shape.compactEvery}
	w, _, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	s.AttachWAL(w)
	for d, doc := range docs {
		if _, err := s.Append(simtime.Time(d)*simtime.Day, cloneDoc(doc)); err != nil {
			t.Fatalf("append day %d: %v", d, err)
		}
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
	w, rec, err := wal.Open(opts)
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	if len(rec.Records) != len(docs) {
		t.Fatalf("WAL replayed %d records, want %d", len(rec.Records), len(docs))
	}
	if (rec.SnapshotRecords > 0) != (shape.compactEvery > 0) || rec.TruncatedBytes != int64(len(shape.tornTail)) {
		t.Fatalf("journal is not in shape %q: %d snapshot records, %d truncated bytes",
			shape.name, rec.SnapshotRecords, rec.TruncatedBytes)
	}
	return w, rec
}

// recoverStoreReencode is the recovery loop as it stood before recovery
// adopted the journaled bytes, kept verbatim as the oracle: decode each
// record, re-ingest it through the ordinary Append path (normalize,
// re-encode), and refuse unless the re-encoding reproduces the record.
func recoverStoreReencode(w *wal.WAL, rec *wal.Recovery) (*Store, error) {
	s := NewStore()
	for _, r := range rec.Records {
		doc, err := DecodeDocument(r.Payload)
		if err != nil {
			return nil, fmt.Errorf("mapstore: recover epoch %d: %w", r.ID, err)
		}
		e, err := s.Append(r.At, doc)
		if err != nil {
			return nil, fmt.Errorf("mapstore: recover epoch %d: %w", r.ID, err)
		}
		// The replayed epoch must be indistinguishable from the journaled
		// one: same dense ID, same canonical bytes. A mismatch means the
		// codec round-trip broke, which would silently fork ETags — refuse.
		if e.ID != r.ID {
			return nil, fmt.Errorf("mapstore: recover epoch %d: store assigned ID %d", r.ID, e.ID)
		}
		if !bytes.Equal(e.Encoded, r.Payload) {
			return nil, fmt.Errorf("mapstore: recover epoch %d: canonical encoding diverged (%d vs %d journaled bytes)",
				r.ID, len(e.Encoded), len(r.Payload))
		}
	}
	obs.C("itm_wal_replayed_epochs_total", "Epochs rebuilt from the WAL at recovery.").
		Add(uint64(len(rec.Records)))
	s.AttachWAL(w)
	return s, nil
}

// TestRecoverStoreMatchesReencodeOracle pins recovery-by-adoption against
// the re-encoding recovery it replaced: over seeded 16-epoch journals in
// every shape, and with the decode-ahead on one worker and on four, the
// recovered store has the same bytes, ETags, sharing, documents and served
// bodies as the oracle's.
func TestRecoverStoreMatchesReencodeOracle(t *testing.T) {
	defer obs.Swap(obs.Swap(obs.NewSet()))
	for _, shape := range journalShapes {
		for seed := int64(1); seed <= 3; seed++ {
			docs := seededDocs(seed, 16)
			want, err := recoverStoreReencode(openJournal(t, docs, shape))
			if err != nil {
				t.Fatalf("%s, seed %d: oracle: %v", shape.name, seed, err)
			}
			wantBodies := driveFixedRequests(t, want)
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s, seed %d, %d workers", shape.name, seed, workers)
				w, rec := openJournal(t, docs, shape)
				got, err := recoverStore(w, rec, workers)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got.Len() != want.Len() {
					t.Fatalf("%s: recovered %d epochs, oracle %d", name, got.Len(), want.Len())
				}
				for i, e := range got.Snapshot() {
					o, _ := want.Epoch(i)
					if !bytes.Equal(e.Encoded, o.Encoded) {
						t.Errorf("%s: epoch %d Encoded differs from the oracle's", name, i)
					}
					if !bytes.Equal(e.Encoded, rec.Records[i].Payload) {
						t.Errorf("%s: epoch %d Encoded is not the journaled payload", name, i)
					}
					if e.ETag != o.ETag {
						t.Errorf("%s: epoch %d ETag %s, oracle %s", name, i, e.ETag, o.ETag)
					}
					if e.SharedSections != o.SharedSections {
						t.Errorf("%s: epoch %d shares %d sections, oracle %d", name, i, e.SharedSections, o.SharedSections)
					}
					if !reflect.DeepEqual(e.Doc, o.Doc) {
						t.Errorf("%s: epoch %d document differs from the oracle's", name, i)
					}
				}
				for p, body := range driveFixedRequests(t, got) {
					if body != wantBodies[p] {
						t.Errorf("%s: %s differs:\n oracle:    %.120q\n recovered: %.120q", name, p, wantBodies[p], body)
					}
				}
				// Still one append path: the next epoch journals after the
				// recovered tail and shares against adopted bytes.
				next := cloneDoc(docs[len(docs)-1])
				e, err := got.Append(simtime.Time(len(docs))*simtime.Day, next)
				if err != nil {
					t.Fatalf("%s: append after recovery: %v", name, err)
				}
				if e.ID != len(docs) || w.Len() != len(docs)+1 || e.SharedSections != sectionCount {
					t.Errorf("%s: append after recovery: epoch %d, WAL %d records, %d shared sections",
						name, e.ID, w.Len(), e.SharedSections)
				}
			}
		}
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
	if maps.Equal(doc.Coverage, prev.Coverage) {
		shared |= secCoverage
	}
	if maps.Equal(doc.ASConfidence, prev.ASConfidence) {
		shared |= secConfidence
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
	enc, err := encodeDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	return &Epoch{Doc: doc, Encoded: enc.bytes, off: enc.off}
}

// TestShareSectionsBytesMatchesMaps: comparing canonical byte spans reaches
// the decision comparing decoded maps did, on every section of every
// consecutive epoch pair — with two intended differences, both on float
// payloads the pipeline never emits. A NaN payload now shares (same bits,
// same bytes; under maps.Equal NaN != NaN kept the section apart forever),
// and +0 against -0 no longer does (different bytes, and different JSON).
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
		t.Errorf("seeded days too tame: sections seen shared %08b, seen copied %08b, want all of both", sawShared, sawCopied)
	}

	withActivity := func(v float64) *core.MapDocument {
		doc := sampleDoc()
		doc.ASActivity["64500"] = v
		return doc
	}
	for _, tc := range []struct {
		name       string
		a, b       float64
		maps, span bool
	}{
		{"NaN payload", math.NaN(), math.NaN(), false, true},
		{"+0 against -0", 0, math.Copysign(0, -1), true, false},
	} {
		byMaps := shareSectionsMaps(withActivity(tc.a), withActivity(tc.b))&secActivity != 0
		bySpan := shareSections(encodedEpoch(t, withActivity(tc.a)), encodedEpoch(t, withActivity(tc.b)))&secActivity != 0
		if byMaps != tc.maps || bySpan != tc.span {
			t.Errorf("%s: shared by maps %v (want %v), by byte span %v (want %v)", tc.name, byMaps, tc.maps, bySpan, tc.span)
		}
	}
}
