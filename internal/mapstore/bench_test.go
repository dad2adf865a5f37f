package mapstore

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"itmap/internal/core"
	"itmap/internal/mapstore/wal"
	"itmap/internal/simtime"
	"itmap/internal/topology"
)

// benchDoc synthesizes a map document with n active prefixes and the
// proportions a real campaign produces (≈1 AS per 100 prefixes, a server
// per 200, a few mappings per AS). Everything is index-derived, so the
// document — and every measurement below — is deterministic.
func benchDoc(n int) *core.MapDocument {
	doc := &core.MapDocument{
		Version:        1,
		PrefixHitRates: map[topology.PrefixID]float64{},
		ASActivity:     map[topology.ASN]float64{},
		Sources:        map[topology.ASN]core.ActivitySource{},
	}
	prefix := func(i int) topology.PrefixID { return prefix("10.0.0.0/24") + topology.PrefixID(i) }
	for i := 0; i < n; i++ {
		p := prefix(i)
		doc.ActivePrefixes = append(doc.ActivePrefixes, p)
		doc.PrefixHitRates[p] = float64(i%97) / 97
	}
	ases := n/100 + 2
	for a := 0; a < ases; a++ {
		asn := topology.ASN(64500 + a)
		doc.ASActivity[asn] = float64((a*7919)%1000) + 0.5
		doc.Sources[asn] = core.FromCacheProbe
	}
	for s := 0; s < n/200+2; s++ {
		doc.Servers = append(doc.Servers, core.ServerDocument{
			Prefix:  prefix(s * 191 % n),
			HostAS:  uint32(64500 + s%ases),
			OwnerAS: uint32(64500 + (s+1)%ases),
			Org:     fmt.Sprintf("org-%d", s%7),
			City:    "frankfurt",
			Country: "DE",
		})
	}
	for a := 0; a < ases; a++ {
		for d := 0; d < 3; d++ {
			doc.Mappings = append(doc.Mappings, core.MappingDocument{
				Domain:   fmt.Sprintf("svc-%d.example", d),
				ClientAS: uint32(64500 + a),
				Serving:  prefix((a*3 + d) * 53 % n),
			})
		}
	}
	doc.Normalize()
	return doc
}

const benchPrefixes = 20000

func BenchmarkEncodeDocument(b *testing.B) {
	doc := benchDoc(benchPrefixes)
	enc, err := EncodeDocument(doc)
	if err != nil {
		b.Fatal(err)
	}
	var jsonBuf bytes.Buffer
	if err := doc.Export(&jsonBuf); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeDocument(doc); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(enc)), "encoded_bytes")
	b.ReportMetric(float64(jsonBuf.Len())/float64(len(enc)), "json_ratio")
}

func BenchmarkDecodeDocument(b *testing.B) {
	enc, err := EncodeDocument(benchDoc(benchPrefixes))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeDocument(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenderMapJSON is a whole-map JSON fill: the /v1/map/{e} body a
// first touch renders, cached afterwards. The collector is off while the
// clock runs, as in BenchmarkRecoverStore, so allocs/op repeats exactly.
func BenchmarkRenderMapJSON(b *testing.B) {
	q := request{e: &Epoch{Doc: benchDoc(benchPrefixes)}}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := renderMap(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenderMapJSONShared is the whole-map fill of an epoch that shares
// its hit rates, and nothing else, with the previous epoch, already rendered:
// it copies the hit rates and renders every other field, as each day after
// the first does in a campaign that reuses one hit-rate scan. Before each
// fill the epoch's own slots are emptied again, so every fill is a first.
func BenchmarkRenderMapJSONShared(b *testing.B) {
	next := benchDoc(benchPrefixes)
	next.ActivePrefixes = append(next.ActivePrefixes, prefix("10.0.0.0/24")+benchPrefixes)
	next.ASActivity[64500]++
	next.Sources[64500] = core.FromRootLogs
	next.Servers[0].City = "paris"
	next.Mappings[0].Domain = "svc-9.example"
	s := NewStore()
	for day, doc := range []*core.MapDocument{benchDoc(benchPrefixes), next} {
		if _, err := s.Append(simtime.Time(day)*simtime.Day, doc); err != nil {
			b.Fatal(err)
		}
	}
	prev, e := s.Snapshot()[0], s.Snapshot()[1]
	if e.SharedSections != 1 || e.frags[core.JSONHitRates] != prev.frags[core.JSONHitRates] {
		b.Fatalf("the epoch shares %d sections, want the hit rates alone", e.SharedSections)
	}
	if _, _, err := renderMap(request{e: prev}); err != nil {
		b.Fatal(err)
	}
	q := request{e: e}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f, frag := range e.frags {
			if frag != nil && frag != prev.frags[f] {
				frag.Store(nil)
			}
		}
		if _, _, err := renderMap(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreAppend(b *testing.B) {
	doc := benchDoc(benchPrefixes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStore()
		if _, err := s.Append(0, doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoverStore replays a journal of 16 consecutive-day epochs of
// the bench world (the wal_recover workload's shape) from an in-memory
// wal.FS. Decoding runs on one CPU, and the collector is off while the
// clock runs (a collection empties the sync.Pools under fmt and the obs
// history, which moves allocs/op by a handful — here across a rounding step
// of the ledger), so allocs/op repeats exactly.
func BenchmarkRecoverStore(b *testing.B) {
	const epochs = 16
	mem := wal.NewMemFS()
	opts := wal.Options{Dir: "wal", FS: mem}
	w, _, err := wal.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	s := NewStore()
	s.AttachWAL(w)
	for d := 0; d < epochs; d++ {
		doc := benchDoc(benchPrefixes)
		doc.ASActivity[64500] += float64(d)
		if _, err := s.Append(simtime.Time(d)*simtime.Day, doc); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, rec, err := wal.Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		s, err := RecoverStore(w, rec)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if s.Len() != epochs {
			b.Fatalf("recovered %d epochs, want %d", s.Len(), epochs)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func benchStore(b *testing.B) *Store {
	b.Helper()
	s := NewStore()
	for d := 0; d < 3; d++ {
		doc := benchDoc(benchPrefixes)
		doc.ASActivity[64500] += float64(d)
		if _, err := s.Append(simtime.Time(d)*simtime.Day, doc); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func BenchmarkTopASes(b *testing.B) {
	s := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Latest().TopASes(10); len(got) != 10 {
			b.Fatal("short ranking")
		}
	}
}

func BenchmarkASView(b *testing.B) {
	s := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Latest().ASView(64510, 5); !ok {
			b.Fatal("AS missing")
		}
	}
}

func BenchmarkStoreDiff(b *testing.B) {
	s := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Diff(0, 2, 0.001); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentReaders measures epoch ingestion under concurrent
// read load — the copy-on-write contract's cost. Each iteration ingests
// one fresh epoch while 4 reader goroutines run a fixed query volume
// against the store, so the per-op numbers are deterministic.
func BenchmarkConcurrentReaders(b *testing.B) {
	s := NewStore()
	if _, err := s.Append(0, benchDoc(benchPrefixes)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		doc := benchDoc(benchPrefixes)
		doc.ASActivity[64500] += float64(i + 1)
		b.StartTimer()
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for q := 0; q < 64; q++ {
					e := s.Latest()
					if got := e.TopASes(10); len(got) == 0 {
						b.Error("lost ranking")
						return
					}
					if _, ok := e.ASView(64510, 5); !ok {
						b.Error("AS missing")
						return
					}
				}
			}()
		}
		if _, err := s.Append(simtime.Time(i+1)*simtime.Day, doc); err != nil {
			b.Fatal(err)
		}
		wg.Wait()
	}
}
