package mapstore

import (
	"bytes"
	"maps"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"itmap/internal/core"
	"itmap/internal/simtime"
)

// appendDocs appends one epoch a day per document.
func appendDocs(t *testing.T, docs ...*core.MapDocument) []*Epoch {
	t.Helper()
	s, es := NewStore(), make([]*Epoch, len(docs))
	for d, doc := range docs {
		var err error
		if es[d], err = s.Append(simtime.Time(d)*simtime.Day, doc); err != nil {
			t.Fatal(err)
		}
	}
	return es
}

// fillMap renders e's whole map as a first touch of /v1/map/{e} does and
// requires the body to be what the document's own writer gives.
func fillMap(t *testing.T, e *Epoch) []byte {
	t.Helper()
	got, _, err := renderMap(request{e: e})
	want, wantErr := e.Doc.AppendJSON(nil)
	if err != nil || wantErr != nil || !bytes.Equal(got, want) {
		t.Fatalf("epoch %d: renderMap (%v) differs from AppendJSON (%v):\n%s\nwant:\n%s", e.ID, err, wantErr, got, want)
	}
	return got
}

// withHitRate is doc with one more hit rate, on a prefix it lists.
func withHitRate(doc *core.MapDocument, v float64) *core.MapDocument {
	c := *doc
	c.PrefixHitRates = maps.Clone(doc.PrefixHitRates)
	c.PrefixHitRates[prefix("203.0.113.0/24")] = v
	return &c
}

// TestFragmentSharedAlongChain: docAt keeps hit rates, servers and the rest
// from day to day and changes actives and activity. Three epochs hold one
// hit-rate slot, whichever fills first publishes it, and it stays published.
func TestFragmentSharedAlongChain(t *testing.T) {
	es := appendDocs(t, docAt(0), docAt(1), docAt(2))
	for _, f := range []core.JSONField{core.JSONHitRates, core.JSONServers} {
		if es[0].frags[f] != es[1].frags[f] || es[1].frags[f] != es[2].frags[f] {
			t.Fatalf("field %d: the chain holds more than one slot", f)
		}
	}
	for _, f := range []core.JSONField{core.JSONActivePrefixes, core.JSONActivity} {
		if es[0].frags[f] == es[1].frags[f] || es[1].frags[f] == es[2].frags[f] {
			t.Fatalf("field %d changes every day, yet two epochs hold one slot", f)
		}
	}
	if es[0].frags[core.JSONHead] != nil || es[0].frags[core.JSONTail] != nil {
		t.Error("head or tail has a slot")
	}
	slot := es[0].frags[core.JSONHitRates]
	if slot.Load() != nil {
		t.Fatal("a slot is published before any fill")
	}
	body := fillMap(t, es[1])
	published := slot.Load()
	want, _ := es[0].Doc.AppendJSONField(nil, core.JSONHitRates)
	if published == nil || !bytes.Equal(*published, want) || !bytes.Contains(body, *published) {
		t.Fatal("the first fill did not publish the hit rates it rendered")
	}
	fillMap(t, es[0])
	fillMap(t, es[2])
	if slot.Load() != published {
		t.Error("a later fill published the shared hit rates again")
	}
}

// TestFragmentABA: the third epoch equals the first but not the second, so
// it shares with the second what the second shares with the first, and
// renders the hit rates the second changed instead of taking the first's.
func TestFragmentABA(t *testing.T) {
	a := sampleDoc()
	es := appendDocs(t, a, withHitRate(a, 0.5), sampleDoc())
	for _, e := range es {
		fillMap(t, e)
	}
	if es[2].frags[core.JSONHitRates] == es[0].frags[core.JSONHitRates] {
		t.Error("the third epoch adopted the first epoch's hit-rate slot")
	}
	if es[2].frags[core.JSONActivity] != es[0].frags[core.JSONActivity] {
		t.Error("activity, equal along all three epochs, holds more than one slot")
	}
}

// TestFragmentOptionalSection: hit rates appear, then disappear again.
// Absent hit rates render nothing (the field is omitempty), and an empty
// fragment is copied as such.
func TestFragmentOptionalSection(t *testing.T) {
	without := func() *core.MapDocument {
		d := sampleDoc()
		d.PrefixHitRates = nil
		return d
	}
	es := appendDocs(t, without(), sampleDoc(), without(), without())
	for _, e := range es {
		fillMap(t, e)
	}
	hr := func(i int) any { return es[i].frags[core.JSONHitRates] }
	if hr(0) == hr(1) || hr(1) == hr(2) || hr(2) != hr(3) {
		t.Errorf("hit-rate slots %p %p %p %p: want a new slot at each change and one after", hr(0), hr(1), hr(2), hr(3))
	}
	if p := es[3].frags[core.JSONHitRates].Load(); p == nil || len(*p) != 0 {
		t.Error("absent hit rates published anything but an empty fragment")
	}
}

// TestFragmentServersMappingsByValue: servers and mappings compare as
// decoded values, so equal lists in fresh storage share their slots.
func TestFragmentServersMappingsByValue(t *testing.T) {
	a, b := sampleDoc(), sampleDoc()
	b.ASActivity[64500]++
	b.Servers, b.Mappings = slices.Clone(a.Servers), slices.Clone(a.Mappings)
	es := appendDocs(t, a, b)
	fillMap(t, es[0])
	for _, f := range []core.JSONField{core.JSONServers, core.JSONMappings} {
		if es[1].frags[f] != es[0].frags[f] || es[1].frags[f].Load() == nil {
			t.Errorf("field %d: equal lists do not share a published slot", f)
		}
	}
	fillMap(t, es[1])
}

// TestFragmentNoSlots: an Epoch built outside append, as
// BenchmarkRenderMapJSON builds one, renders every field every time.
func TestFragmentNoSlots(t *testing.T) {
	e := &Epoch{Doc: benchDoc(300)}
	fillMap(t, e)
	fillMap(t, e)
}

// TestFragmentConcurrentColdFills fills two epochs that share their hit
// rates at once, from cold, many times over: both render the shared field,
// one publishes it, and both bodies are right (run it under -race).
func TestFragmentConcurrentColdFills(t *testing.T) {
	for round := 0; round < 20; round++ {
		es := appendDocs(t, docAt(0), docAt(1))
		if es[0].frags[core.JSONHitRates] != es[1].frags[core.JSONHitRates] {
			t.Fatal("the two epochs do not share a hit-rate slot")
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for _, e := range es {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got, _, err := renderMap(request{e: e})
				if want, _ := e.Doc.AppendJSON(nil); err != nil || !bytes.Equal(got, want) {
					t.Errorf("round %d, epoch %d: a concurrent fill served the wrong body (%v)", round, e.ID, err)
				}
			}()
		}
		close(start)
		wg.Wait()
		fillMap(t, es[0])
		fillMap(t, es[1])
	}
}

// TestOutOfRangeKSharesOneEntry: a k past either end of a ranking answers
// the same body as the end itself, so a thousand distinct ones add at most
// two cache entries per route, and never crowd map.json out of its cache.
func TestOutOfRangeKSharesOneEntry(t *testing.T) {
	s := meshStoreWith(t, 1)
	h, e, v := NewHandler(s), s.Latest(), s.cur.Load()
	fetch := func(target string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d", target, rec.Code)
		}
		return rec.Body.String()
	}
	entries := func(c *responseCache, prefix string) int {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for key := range c.entries {
			if strings.HasPrefix(key, prefix) {
				n++
			}
		}
		return n
	}
	for _, rt := range []struct {
		path, key string
		cache     *responseCache
		n         int // the ranking's length
		below     int // the k a negative one answers as
	}{
		{"/v1/top?k=", "top?", e.cache, len(e.ranked), 0},
		{"/v1/latency/top?k=", "latency/top?", e.cache, len(e.meshWorst), 0},
		{"/v1/as/64500?k=", "as?", v.cache, len(e.mappingsBy[64500]), len(e.mappingsBy[64500])},
	} {
		before := entries(rt.cache, rt.key)
		above, below := fetch(rt.path+strconv.Itoa(rt.n)), fetch(rt.path+strconv.Itoa(rt.below))
		for i := 0; i < 1000; i++ {
			k, want := 1000000+i, above
			if i%2 == 1 {
				k, want = -i, below
			}
			if got := fetch(rt.path + strconv.Itoa(k)); got != want {
				t.Fatalf("%s%d: body differs from the in-range one:\n%s\nwant:\n%s", rt.path, k, got, want)
			}
		}
		if n := entries(rt.cache, rt.key) - before; n > 2 {
			t.Errorf("%s: a thousand out-of-range k added %d cache entries, want at most 2", rt.path, n)
		}
	}
}
