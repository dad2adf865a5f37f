package mapstore

import (
	"bytes"
	"sync"
	"testing"

	"itmap/internal/core"
	"itmap/internal/simtime"
	"itmap/internal/topology"
)

// docAt derives a small per-day variant of the sample document: day 0 is
// the sample itself; later days add a prefix and shift one AS's activity,
// while servers and mappings stay identical (the shareable sections).
func docAt(day int) *core.MapDocument {
	doc := sampleDoc()
	for d := 1; d <= day; d++ {
		doc.ActivePrefixes = append(doc.ActivePrefixes, prefix("10.0.0.0/24")+topology.PrefixID(d))
		doc.ASActivity[64500] += 10
	}
	return doc
}

func TestStoreAppendAndLookup(t *testing.T) {
	s := NewStore()
	if s.Len() != 0 || s.Latest() != nil {
		t.Fatal("new store not empty")
	}
	for day := 0; day < 3; day++ {
		e, err := s.Append(simtime.Time(day)*simtime.Day, docAt(day))
		if err != nil {
			t.Fatal(err)
		}
		if e.ID != day {
			t.Errorf("epoch ID %d, want %d", e.ID, day)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("len %d, want 3", s.Len())
	}
	if s.Latest().ID != 2 {
		t.Errorf("latest ID %d", s.Latest().ID)
	}
	if _, ok := s.Epoch(3); ok {
		t.Error("out-of-range epoch found")
	}
	if _, ok := s.Epoch(-1); ok {
		t.Error("negative epoch found")
	}
	infos := s.Infos()
	if len(infos) != 3 || infos[1].ActivePrefixes != 4 || infos[1].EncodedBytes == 0 {
		t.Errorf("infos %+v", infos)
	}

	// Epoch time must advance strictly.
	if _, err := s.Append(2*simtime.Day, docAt(3)); err == nil {
		t.Error("non-advancing epoch time accepted")
	}
}

func TestStoreStructuralSharing(t *testing.T) {
	s := NewStore()
	if _, err := s.Append(0, docAt(0)); err != nil {
		t.Fatal(err)
	}
	e1, err := s.Append(simtime.Day, docAt(1))
	if err != nil {
		t.Fatal(err)
	}
	// Servers, mappings, hit rates, sources, coverage, and confidence are
	// unchanged day-over-day; actives and activity changed.
	if e1.SharedSections != sectionCount-2 {
		t.Errorf("shared %d sections, want %d", e1.SharedSections, sectionCount-2)
	}
	e0, _ := s.Epoch(0)
	if &e0.Doc.Servers[0] != &e1.Doc.Servers[0] {
		t.Error("servers section not structurally shared")
	}
	if &e0.Doc.Mappings[0] != &e1.Doc.Mappings[0] {
		t.Error("mappings section not structurally shared")
	}

	// An identical re-ingest shares every section.
	e2, err := s.Append(2*simtime.Day, docAt(1))
	if err != nil {
		t.Fatal(err)
	}
	if e2.SharedSections != sectionCount {
		t.Errorf("identical doc shared %d sections, want %d", e2.SharedSections, sectionCount)
	}
}

func TestStoreEncodedRoundTrip(t *testing.T) {
	s := NewStore()
	for day := 0; day < 3; day++ {
		if _, err := s.Append(simtime.Time(day)*simtime.Day, docAt(day)); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range s.Snapshot() {
		doc, err := DecodeDocument(e.Encoded)
		if err != nil {
			t.Fatalf("epoch %d: %v", e.ID, err)
		}
		re, err := EncodeDocument(doc)
		if err != nil {
			t.Fatalf("epoch %d: %v", e.ID, err)
		}
		if !bytes.Equal(re, e.Encoded) {
			t.Errorf("epoch %d: decode→re-encode not byte-identical", e.ID)
		}
	}
}

func TestStoreRejectsBadDocuments(t *testing.T) {
	s := NewStore()
	if _, err := s.Append(0, nil); err == nil {
		t.Error("nil document accepted")
	}
	if _, err := s.Append(0, &core.MapDocument{Version: 1, ActivePrefixes: []topology.PrefixID{topology.MaxPrefixID + 1}}); err == nil {
		t.Error("unencodable document accepted")
	}
	if s.Len() != 0 {
		t.Error("failed appends left epochs behind")
	}
}

// TestStoreConcurrentReadersNeverBlock pins the copy-on-write contract:
// readers hammer queries on existing epochs while a writer ingests new
// ones; every read observes a consistent epoch list and the final state
// holds every appended epoch. Run under -race this also proves there is no
// unsynchronized access.
func TestStoreConcurrentReadersNeverBlock(t *testing.T) {
	s := NewStore()
	if _, err := s.Append(0, docAt(0)); err != nil {
		t.Fatal(err)
	}
	const days = 30
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				es := s.Snapshot()
				if len(es) == 0 {
					t.Error("snapshot lost the seed epoch")
					return
				}
				e := es[len(es)-1]
				if e.ID != len(es)-1 {
					t.Errorf("epoch ID %d at position %d", e.ID, len(es)-1)
					return
				}
				if got := e.TopASes(2); len(got) == 0 {
					t.Error("latest epoch lost its ranking")
					return
				}
				if _, ok := e.ASView(64500, 3); !ok {
					t.Error("AS view vanished")
					return
				}
				if len(es) >= 2 {
					if _, err := s.Diff(0, len(es)-1, 0.01); err != nil {
						t.Errorf("diff: %v", err)
						return
					}
				}
			}
		}()
	}
	for day := 1; day <= days; day++ {
		if _, err := s.Append(simtime.Time(day)*simtime.Day, docAt(day)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if s.Len() != days+1 {
		t.Errorf("len %d, want %d", s.Len(), days+1)
	}
}
