package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func testCatalog() *catalog {
	cat := &catalog{epochs: []int{0, 1, 2}}
	for i := 0; i < 64; i++ {
		cat.asns = append(cat.asns, uint32(3000+i))
		cat.pairs = append(cat.pairs, [2]uint32{uint32(3000 + i), uint32(4000 + i)})
	}
	return cat
}

func drawHot(t *testing.T, seed int64, worker, n int) []request {
	t.Helper()
	p, err := newHotPlan(seed, worker, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]request, n)
	for i := range out {
		out[i] = p.next()
	}
	return out
}

func TestPlanIsAFunctionOfSeedAndStream(t *testing.T) {
	a, b := drawHot(t, 7, 0, 1000), drawHot(t, 7, 0, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed and stream gave different plans")
	}
	if reflect.DeepEqual(a, drawHot(t, 8, 0, 1000)) {
		t.Error("seeds 7 and 8 gave the same plan")
	}
	if reflect.DeepEqual(a, drawHot(t, 7, 1, 1000)) {
		t.Error("streams 0 and 1 of one seed gave the same plan")
	}
}

func TestHotMixShares(t *testing.T) {
	const n = 100000
	counts := map[string]int{}
	revalidate, traced := 0, 0
	asRank0 := 0
	for _, q := range drawHot(t, 1, 0, n) {
		counts[q.route]++
		if q.revalidate {
			revalidate++
		}
		if q.traceparent != "" {
			traced++
		}
		if q.url == "/v1/as/3000" {
			asRank0++
		}
	}
	share := func(c int) float64 { return float64(c) / n }
	for route, want := range map[string]float64{
		"top": 0.30, "as": 0.30, "diff": 0.10, "path": 0.15, "latency": 0.10, "latency_top": 0.05,
	} {
		if got := share(counts[route]); math.Abs(got-want) > 0.01 {
			t.Errorf("%s share %.4f, want %.2f within 0.01", route, got, want)
		}
	}
	if got := share(revalidate); math.Abs(got-revalidateProb) > 0.01 {
		t.Errorf("revalidate share %.4f, want %.2f", got, revalidateProb)
	}
	if got := share(traced); math.Abs(got-1.0/tracedOneIn) > 0.01 {
		t.Errorf("traced share %.4f, want %.3f", got, 1.0/tracedOneIn)
	}
	// Zipf(1.1) over 64 ranks puts 25.0 % of the draws on rank 0.
	if got := float64(asRank0) / float64(counts["as"]); math.Abs(got-0.2505) > 0.01 {
		t.Errorf("top-ranked AS drew %.4f of the AS requests, want 0.2505 within 0.01", got)
	}
}

func TestFullmapPlan(t *testing.T) {
	p, err := newFullmapPlan(1, 0, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		q := p.next()
		counts[q.route]++
		if q.revalidate || !q.gzip {
			t.Fatalf("%+v: whole-map requests are unconditional and offer gzip", q)
		}
	}
	if bin := counts["map_bin"]; bin < 4800 || bin > 5200 {
		t.Errorf("%d of 10000 binary, want about half", bin)
	}
}

func TestFirstTouchPlanTouchesEachURLOnce(t *testing.T) {
	cat := testCatalog()
	sync, check := firstTouchPlan(1, cat)
	if len(sync) != len(cat.epochs) {
		t.Errorf("sync has %d requests, want one whole map per epoch (%d)", len(sync), len(cat.epochs))
	}
	seen := map[string]bool{}
	for _, q := range append(append([]request(nil), sync...), check...) {
		if seen[q.url] {
			t.Errorf("%s repeats: not a first touch", q.url)
		}
		seen[q.url] = true
		if q.revalidate {
			t.Errorf("%s: a first touch cannot revalidate", q.url)
		}
	}
	for _, q := range sync {
		if q.route != "map_json" {
			t.Errorf("%s in the timed pass: only whole-map JSON downloads are timed", q.url)
		}
	}
	for _, url := range []string{"/v1/epochs", "/v1/map/0?format=binary", "/v1/top?epoch=2&k=10", "/v1/diff/0/1", "/v1/as/3000", "/v1/path/3000/4000"} {
		if !seen[url] {
			t.Errorf("%s is not compared after a boot", url)
		}
	}
	_, again := firstTouchPlan(1, cat)
	if !reflect.DeepEqual(check, again) {
		t.Error("same seed gave a different check order")
	}
	if _, other := firstTouchPlan(2, cat); reflect.DeepEqual(check, other) {
		t.Error("seeds 1 and 2 gave the same check order")
	}
	// A recovered server has no mesh sections: nothing may ask for them. Of
	// its longer journal the recent epochs' maps are timed, the older ones
	// only compared.
	journal := &catalog{epochs: []int{0, 1, 2, 3, 4}, asns: cat.asns}
	sync, check = firstTouchPlan(1, journal)
	if want := []string{"/v1/map/2", "/v1/map/3", "/v1/map/4"}; len(sync) != 3 ||
		sync[0].url != want[0] || sync[1].url != want[1] || sync[2].url != want[2] {
		t.Errorf("sync of a 5-epoch journal is %v, want %v", sync, want)
	}
	older := 0
	for _, q := range check {
		if q.route == "path" || q.route == "latency" {
			t.Errorf("%s asked of a server without mesh", q.url)
		}
		if q.url == "/v1/map/0" || q.url == "/v1/map/1" {
			older++
		}
	}
	if older != 2 {
		t.Errorf("%d of the 2 older epochs' JSON maps are compared", older)
	}
}

func TestRecordLoopCutsWindows(t *testing.T) {
	// Three seconds of one request per 100 ms, 1 ms each, 1000 bytes each;
	// the reply that lands past the end is checked but not counted.
	var l loopResult
	l.routes = map[string]int{}
	for i := 1; i <= 31; i++ {
		l.events = append(l.events, event{end: time.Duration(i) * 100 * time.Millisecond, latencyMS: 1, bytes: 1000})
		l.requests++
	}
	s := samples{values: map[string][]float64{}, routes: map[string]int{}}
	s.recordLoop(&l, 3*time.Second)
	rps, mbps := s.values["rps"], s.values["mbps"]
	if len(rps) != 3 || len(s.values["p50_ms"]) != 3 || len(s.values["p99_ms"]) != 3 || len(mbps) != 3 {
		t.Fatalf("windows: %v, want 3 of each metric", s.values)
	}
	// Completions at 0.1..0.9 s fall in window 0, 1.0..1.9 in 1, 2.0..2.9 in 2.
	for i, want := range []float64{9, 10, 10} {
		if rps[i] != want || mbps[i] != want*1000/1e6 {
			t.Errorf("window %d: rps %v mbps %v, want %v and %v", i, rps[i], mbps[i], want, want*1000/1e6)
		}
	}
	if s.attempted != 31 {
		t.Errorf("attempted %d, want 31", s.attempted)
	}
}

func TestStalledWindowLowersTheRate(t *testing.T) {
	// Two requests in the first second, then nothing for two seconds.
	l := loopResult{routes: map[string]int{}, requests: 2, events: []event{
		{end: 100 * time.Millisecond, latencyMS: 1, bytes: 10},
		{end: 200 * time.Millisecond, latencyMS: 3, bytes: 10},
	}}
	s := samples{values: map[string][]float64{}, routes: map[string]int{}}
	s.recordLoop(&l, 3*time.Second)
	if want := []float64{2, 0, 0}; !reflect.DeepEqual(s.values["rps"], want) {
		t.Errorf("rps windows %v, want %v", s.values["rps"], want)
	}
	if want := []float64{2e-5, 0, 0}; !reflect.DeepEqual(s.values["mbps"], want) {
		t.Errorf("mbps windows %v, want %v", s.values["mbps"], want)
	}
	if len(s.values["p50_ms"]) != 1 || len(s.values["p99_ms"]) != 1 {
		t.Errorf("latency windows %v and %v, want only the window that had requests",
			s.values["p50_ms"], s.values["p99_ms"])
	}
}

// A program that never gives a first byte is a run with failed operations
// and a result line, not a benchmark that could not run.
func TestEveryTimedBootFailing(t *testing.T) {
	r := newRun(config{seconds: 0.05}, "/bin/false", t.TempDir())
	if err := r.timedBoots(context.Background(), func() (bootSpec, error) { return bootSpec{}, nil }); err != nil {
		t.Fatal(err)
	}
	s := &r.samples
	if s.attempted == 0 || s.failed != s.attempted || len(s.values["first_byte_s"]) != 0 {
		t.Fatalf("attempted %d, failed %d, %d first-byte samples; want every boot failed", s.attempted, s.failed, len(s.values["first_byte_s"]))
	}
	res := &result{Metrics: map[string]value{}}
	if err := s.endToEnd(res); err != nil {
		t.Errorf("a run whose operations all failed must still be reported: %v", err)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics in the result, want %d", len(res.Metrics), len(endToEnd))
	}
	s.failed = 0
	if err := s.endToEnd(res); err == nil {
		t.Error("no samples and no failures: want an error")
	}
}

func TestReferenceMerge(t *testing.T) {
	ref := newReference()
	a := bodyID{etag: `"a"`, size: 3, crc: 1}
	if n := ref.merge(map[string]bodyID{"/x": a}); n != 0 {
		t.Errorf("first sight counted %d mismatches", n)
	}
	if n := ref.merge(map[string]bodyID{"/x": a, "/y": a}); n != 0 {
		t.Errorf("same bytes counted %d mismatches", n)
	}
	if n := ref.merge(map[string]bodyID{"/x": {etag: `"a"`, size: 3, crc: 2}}); n != 1 {
		t.Errorf("changed body counted %d mismatches, want 1", n)
	}
	if len(ref.log) != 1 {
		t.Errorf("log holds %d lines, want 1", len(ref.log))
	}
}

func TestSumFamilies(t *testing.T) {
	text := []byte(`# HELP itm_cache_hits_total x
# TYPE itm_cache_hits_total counter
itm_cache_hits_total{route="/v1/top"} 5
itm_cache_hits_total{route="/v1/as/{asn}"} 7
itm_cache_hits_total_other 100
itm_admission_shed_total 2
itm_cache_misses_total{route="a b"} 1.5e1
`)
	got := sumFamilies(text, []string{"itm_cache_hits_total", "itm_admission_shed_total", "itm_cache_misses_total", "absent"})
	want := map[string]float64{"itm_cache_hits_total": 12, "itm_admission_shed_total": 2, "itm_cache_misses_total": 15}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sumFamilies = %v, want %v", got, want)
	}
}

// BENCHMARK.json and the driver must name the same workloads and metrics,
// with the same units: the contract is checked name by name.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, driver has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(what string, file []struct{ Name, Unit string }, driver []metricDef) {
		if len(file) != len(driver) {
			t.Errorf("%s: %d in BENCHMARK.json, %d in the driver", what, len(file), len(driver))
			return
		}
		for i, m := range driver {
			if file[i].Name != m.name || file[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %+v, driver has %+v", what, i, file[i], m)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer())
}
