package history

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"itmap/internal/obs"
	"itmap/internal/simtime"
)

func testReg(n uint64) *obs.Registry {
	r := obs.NewRegistry()
	obs.NewCounter("itm_x_total", "x.", "k").In(r, "a").Add(n)
	obs.NewCounter("itm_y_total", "y.").In(r).Add(2 * n)
	obs.NewCounter("itm_wall_total", "never sampled.").Volatile().In(r).Add(99)
	return r
}

func TestRecordAndSnapshot(t *testing.T) {
	ring := NewRing(4)
	reg := testReg(3)
	s := ring.Record("epoch", "epoch-1", 24, reg)
	if s.Index != 0 || s.Source != "epoch" || s.AtH != 24 {
		t.Fatalf("sample = %+v", s)
	}
	want := []KV{{`itm_x_total{k="a"}`, 3}, {"itm_y_total", 6}}
	if len(s.Values) != len(want) {
		t.Fatalf("values = %+v, want %+v", s.Values, want)
	}
	for i := range want {
		if s.Values[i] != want[i] {
			t.Fatalf("values[%d] = %+v, want %+v", i, s.Values[i], want[i])
		}
	}
	snap := ring.Snapshot()
	if snap.Gen != 1 || snap.Dropped != 0 || len(snap.Samples) != 1 {
		t.Fatalf("snapshot = gen %d dropped %d len %d", snap.Gen, snap.Dropped, len(snap.Samples))
	}
	// Bookkeeping counters land after the capture: sample 0 must not see
	// its own itm_history_samples_total increment.
	for _, kv := range s.Values {
		if strings.HasPrefix(kv.Key, "itm_history_") {
			t.Fatalf("sample 0 saw its own bookkeeping: %+v", kv)
		}
	}
	if got := samplesTotal.In(reg, "epoch").Value(); got != 1 {
		t.Fatalf("samples_total = %d, want 1", got)
	}
}

func TestRingEvictsOldestAndCounts(t *testing.T) {
	ring := NewRing(2)
	reg := testReg(1)
	for i := 0; i < 5; i++ {
		ring.Record("epoch", "e", 0, reg)
	}
	snap := ring.Snapshot()
	if snap.Gen != 5 || snap.Dropped != 3 || len(snap.Samples) != 2 {
		t.Fatalf("snapshot = gen %d dropped %d len %d, want 5/3/2", snap.Gen, snap.Dropped, len(snap.Samples))
	}
	// Oldest-first retention: indices are the newest two, in order.
	if snap.Samples[0].Index != 3 || snap.Samples[1].Index != 4 {
		t.Fatalf("retained indices = %d, %d, want 3, 4", snap.Samples[0].Index, snap.Samples[1].Index)
	}
	if got := evictedTotal.In(reg).Value(); got != 3 {
		t.Fatalf("evicted_total = %d, want 3", got)
	}
	if n := len(ring.samples); n != 2 {
		t.Fatalf("ring retains %d samples, want 2", n)
	}
}

// A snapshot taken before later Records must not change under them: readers
// hold immutable views.
func TestSnapshotImmutableUnderLaterRecords(t *testing.T) {
	ring := NewRing(2)
	reg := testReg(1)
	ring.Record("epoch", "first", 1, reg)
	snap := ring.Snapshot()
	before, err := snap.MarshalBody()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		ring.Record("epoch", "later", 2, reg)
	}
	after, err := snap.MarshalBody()
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("held snapshot changed under later Records")
	}
}

func TestETagChangesWithContent(t *testing.T) {
	ring := NewRing(8)
	reg := testReg(1)
	empty := ring.Snapshot().ETag()
	ring.Record("epoch", "a", 1, reg)
	one := ring.Snapshot().ETag()
	ring.Record("epoch", "b", 2, reg)
	two := ring.Snapshot().ETag()
	if empty == one || one == two {
		t.Fatalf("ETags must churn with content: %q %q %q", empty, one, two)
	}
	for _, tag := range []string{empty, one, two} {
		if !strings.HasPrefix(tag, `"itm-h`) || !strings.HasSuffix(tag, `"`) {
			t.Fatalf("malformed ETag %q", tag)
		}
	}
}

// A snapshot hashes its tag when first asked: read after later Records and
// evictions, it is the tag of its own content, the one a read right after
// its Record gives, and the validator the ring has always served.
func TestETagReadLateIsTheSnapshotsOwn(t *testing.T) {
	eager, late := NewRing(2), NewRing(2)
	var tags []string
	var held []*Snapshot
	for i := 1; i <= 5; i++ {
		eager.Record("epoch", "e", simtime.Time(i), testReg(uint64(i)))
		tags = append(tags, eager.Snapshot().ETag())
		late.Record("epoch", "e", simtime.Time(i), testReg(uint64(i)))
		held = append(held, late.Snapshot())
	}
	for i, snap := range held {
		if got := snap.ETag(); got != tags[i] {
			t.Errorf("snapshot %d read late: %s, read at once: %s", i, got, tags[i])
		}
	}
	const want = `"itm-h5-def025ad6e79d906"`
	if tags[4] != want {
		t.Errorf("ring tag %s, want %s", tags[4], want)
	}
}

// Handlers read a published snapshot's tag from many goroutines at once; the
// first reads race to hash it and all of them get the one tag.
func TestETagFirstReadsConcurrent(t *testing.T) {
	ring := NewRing(4)
	for i := 1; i <= 3; i++ {
		ring.Record("epoch", "e", simtime.Time(i), testReg(uint64(i)))
	}
	snap := ring.Snapshot()
	tags := make([]string, 8)
	var wg sync.WaitGroup
	for g := range tags {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tags[g] = snap.ETag()
		}()
	}
	wg.Wait()
	for g, tag := range tags {
		if tag != etagFor(snap.Gen, snap.Samples) {
			t.Errorf("reader %d got %s, want %s", g, tag, etagFor(snap.Gen, snap.Samples))
		}
	}
}

// Same sample sequence → same ETag and same body bytes: the determinism
// contract the serving layer's cache leans on.
func TestRingDeterministicAcrossRuns(t *testing.T) {
	run := func() ([]byte, string) {
		ring := NewRing(3)
		for i := 1; i <= 5; i++ {
			ring.Record("epoch", "e-"+strings.Repeat("x", i), simtime.Time(i), testReg(uint64(i)))
		}
		snap := ring.Snapshot()
		b, err := snap.MarshalBody()
		if err != nil {
			t.Fatal(err)
		}
		return b, snap.ETag()
	}
	b1, e1 := run()
	b2, e2 := run()
	if e1 != e2 {
		t.Fatalf("ETags differ: %q vs %q", e1, e2)
	}
	if string(b1) != string(b2) {
		t.Fatal("bodies differ across identical runs")
	}
}

func TestMarshalBodyShape(t *testing.T) {
	ring := NewRing(4)
	ring.Record("mesh", "mesh-consumer", 48, testReg(2))
	snap := ring.Snapshot()
	b, err := snap.MarshalBody()
	if err != nil {
		t.Fatal(err)
	}
	if b[len(b)-1] != '\n' {
		t.Fatal("body must end with a newline")
	}
	var body struct {
		ETag       string    `json:"etag"`
		Generation int       `json:"generation"`
		Dropped    int       `json:"dropped"`
		Samples    []*Sample `json:"samples"`
	}
	if err := json.Unmarshal(b, &body); err != nil {
		t.Fatal(err)
	}
	if body.ETag != snap.ETag() || body.Generation != 1 || len(body.Samples) != 1 {
		t.Fatalf("body = %+v", body)
	}
	if body.Samples[0].Label != "mesh-consumer" {
		t.Fatalf("label = %q", body.Samples[0].Label)
	}
}

func TestMarshalFamilyBodyFiltersAnd404s(t *testing.T) {
	ring := NewRing(4)
	ring.Record("epoch", "e1", 24, testReg(1))
	ring.Record("epoch", "e2", 48, testReg(5))
	snap := ring.Snapshot()

	b, ok, err := snap.MarshalFamilyBody("itm_x_total")
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	var body struct {
		Family  string    `json:"family"`
		Samples []*Sample `json:"samples"`
	}
	if err := json.Unmarshal(b, &body); err != nil {
		t.Fatal(err)
	}
	if body.Family != "itm_x_total" || len(body.Samples) != 2 {
		t.Fatalf("body = %+v", body)
	}
	for _, s := range body.Samples {
		if len(s.Values) != 1 || KeyFamily(s.Values[0].Key) != "itm_x_total" {
			t.Fatalf("unfiltered sample: %+v", s)
		}
	}

	if _, ok, err := snap.MarshalFamilyBody("itm_absent_total"); err != nil || ok {
		t.Fatalf("absent family: ok=%v err=%v, want miss", ok, err)
	}

	if snap.FamilyETag("itm_x_total") == snap.FamilyETag("itm_y_total") {
		t.Fatal("distinct families must not share an ETag")
	}
}

func TestSeriesKeyAndKeyFamily(t *testing.T) {
	got := SeriesKey("itm_x_total", []obs.Label{{Key: "a", Value: "1"}, {Key: "b", Value: "2"}})
	if got != `itm_x_total{a="1",b="2"}` {
		t.Fatalf("SeriesKey = %q", got)
	}
	if KeyFamily(got) != "itm_x_total" {
		t.Fatalf("KeyFamily = %q", KeyFamily(got))
	}
	if KeyFamily("bare") != "bare" {
		t.Fatalf("KeyFamily(bare) = %q", KeyFamily("bare"))
	}
}

func TestDefaultSwap(t *testing.T) {
	fresh := NewRing(4)
	prev := Swap(fresh)
	defer Swap(prev)
	if Default() != fresh {
		t.Fatal("Default must follow Swap")
	}
	obsPrev := obs.Swap(obs.NewSet())
	defer obs.Swap(obsPrev)
	obs.NewCounter("itm_z_total", "z.").Add(7)
	s := Observe("sweep", "sweep-discover", 24)
	if s.Source != "sweep" || len(fresh.samples) != 1 {
		t.Fatalf("Observe did not land in the default ring: %+v len=%d", s, len(fresh.samples))
	}
}
