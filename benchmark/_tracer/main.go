// Command _tracer is the traced run's in-process half. It mirrors what
// itm-serve does between exec and its first byte — a fresh build and a WAL
// recovery — by calling the same exported functions in the same order, with a
// span around each call; then it times the serving layers (cache hit, fill,
// revalidation, admission, instrumentation) through the same handler stack
// into a discarding writer. It prints the per-layer metrics as JSON and
// writes the spans to -spans.
//
// It is the only part of the benchmark that imports itmap/internal/...; the
// directory name keeps it out of ./... and of the repo's lint walk, so a
// change to those packages' signatures breaks the traced run alone, and a
// benchmark-correction change repairs it. End-to-end numbers never come
// from here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"itmap/benchmark/clock"
	"itmap/benchmark/spans"
	"itmap/benchmark/stats"
	"itmap/internal/bgp"
	"itmap/internal/core"
	"itmap/internal/experiments"
	"itmap/internal/faults"
	"itmap/internal/mapstore"
	"itmap/internal/mapstore/wal"
	"itmap/internal/obs"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/traffic"
	"itmap/internal/vantage"
	"itmap/internal/world"
)

type options struct {
	workload      string
	scale         string
	seed          int64
	epochs        int
	recoverEpochs int
	meshAgents    int
	dir           string
	spansPath     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload the traced run is for (labels the spans)")
	flag.StringVar(&o.scale, "scale", "small", "world scale: tiny, small or default")
	flag.Int64Var(&o.seed, "seed", 1, "world seed")
	flag.IntVar(&o.epochs, "epochs", 3, "epochs of the mirrored fresh boot")
	flag.IntVar(&o.recoverEpochs, "recover-epochs", 16, "epochs of the mirrored recovery's journal")
	flag.IntVar(&o.meshAgents, "mesh-agents", 24, "vantage fleet size of the mirrored fresh boot")
	flag.StringVar(&o.dir, "dir", "", "scratch directory for the WAL files")
	flag.StringVar(&o.spansPath, "spans", "", "where to write the spans")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
}

// tracer carries the recorder, the metrics gathered so far, and what one
// phase builds for the next. The first error stops the phases after it.
type tracer struct {
	o       options
	rec     *spans.Recorder
	metrics map[string]float64
	failed  error

	cfg  world.Config
	w    *world.World
	envs []*experiments.Env // one per day, for the longer of boot and journal
	mx   *traffic.Matrix
	maps []*core.TrafficMap // the mirrored boot's epochs
	st   *mapstore.Store    // the mirrored boot's store: epochs with mesh
	// The journal wal_recover replays, and the store that wrote it.
	journal    *mapstore.Store
	recoverDir string

	bootMS, bootStagesMS, recoverStagesMS float64
	bootSpans                             int
}

func (t *tracer) fail(err error) {
	if err != nil && t.failed == nil {
		t.failed = err
	}
}

// timed runs f under a span and returns its length in milliseconds.
func (t *tracer) timed(name string, f func()) float64 {
	return t.rec.DurationMS(t.rec.Do(name, f))
}

// countingFS is the wal.FS the mirrored boot journals through: the real file
// system, with a span around every write and flush and a count of both.
type countingFS struct {
	wal.FS
	rec    *spans.Recorder
	fsyncs int
	bytes  int64
}

type countingFile struct {
	wal.File
	fs *countingFS
}

func (c *countingFS) wrap(f wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{f, c}, nil
}

func (c *countingFS) OpenAppend(name string) (wal.File, error) { return c.wrap(c.FS.OpenAppend(name)) }
func (c *countingFS) Create(name string) (wal.File, error)     { return c.wrap(c.FS.Create(name)) }

func (c *countingFS) SyncDir(dir string) (err error) {
	c.fsyncs++
	c.rec.Do("wal.fsync_dir", func() { err = c.FS.SyncDir(dir) })
	return err
}

func (f *countingFile) Write(p []byte) (n int, err error) {
	f.fs.rec.Do("wal.write", func() { n, err = f.File.Write(p) })
	f.fs.bytes += int64(n)
	return n, err
}

func (f *countingFile) Sync() (err error) {
	f.fs.fsyncs++
	f.fs.rec.Do("wal.fsync", func() { err = f.File.Sync() })
	return err
}

// discard is the writer the handlers serve into: net/http's own per-request
// header map, and nowhere for the body to go.
type discard struct {
	header http.Header
	status int
}

func (d *discard) Header() http.Header         { return d.header }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(status int)      { d.status = status }

// serve sends one GET through h and returns the reply's status and ETag.
func serve(h http.Handler, url string, header ...string) (int, string) {
	req := httptest.NewRequest(http.MethodGet, url, nil)
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	w := &discard{header: http.Header{}, status: http.StatusOK}
	h.ServeHTTP(w, req)
	return w.status, w.header.Get("ETag")
}

// stack is itm-serve's handler stack over st: mux, store handler, admission
// valve with the default limits.
func stack(st *mapstore.Store) (wrapped, bare http.Handler) {
	mux := http.NewServeMux()
	mux.Handle("/", mapstore.NewHandler(st))
	adm := mapstore.NewAdmission(mapstore.AdmissionConfig{MaxQueue: -1})
	return adm.Wrap(mux), mux
}

// firstRequest is the poll that finds the server up: the first-byte URL
// through a freshly built handler stack.
func firstRequest(rec *spans.Recorder, st *mapstore.Store) error {
	var status int
	rec.Do("http.first_request", func() {
		wrapped, _ := stack(st)
		status, _ = serve(wrapped, "/v1/top?k=10")
	})
	if status != http.StatusOK {
		return fmt.Errorf("first request: status %d", status)
	}
	return nil
}

const (
	batches  = 21
	perBatch = 200
)

// perCallUS times f in batches and returns the median batch's mean call time.
func perCallUS(f func()) float64 {
	f() // first touch: fills, lazy set-up
	means := make([]float64, batches)
	for b := range means {
		start := clock.Now()
		for i := 0; i < perBatch; i++ {
			f()
		}
		means[b] = float64(clock.Now()-start) / float64(time.Microsecond) / perBatch
	}
	return stats.Median(means)
}

// allocsPerCall counts heap allocations per call of f.
func allocsPerCall(n int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func worldConfig(scale string, seed int64) (world.Config, error) {
	switch scale {
	case "tiny":
		return world.Tiny(seed), nil
	case "small":
		return world.Small(seed), nil
	case "default":
		return world.Default(seed), nil
	}
	return world.Config{}, fmt.Errorf("unknown scale %q", scale)
}

func run(o options) error {
	if o.dir == "" || o.spansPath == "" {
		return fmt.Errorf("-dir and -spans are required")
	}
	cfg, err := worldConfig(o.scale, o.seed)
	if err != nil {
		return err
	}
	t := &tracer{o: o, cfg: cfg, rec: spans.NewRecorder(clock.Now, o.workload), metrics: map[string]float64{},
		recoverDir: filepath.Join(o.dir, "trace-recover")}
	// The recovery runs last, on a heap that holds only the journal's bytes,
	// as a recovering itm-serve's does: a live world would change what its
	// garbage collection costs.
	for _, phase := range []func(){t.bootMirror, t.journalBuild, t.buildProbes, t.serveLayers, t.recoverMirror, t.spanCost} {
		if phase(); t.failed != nil {
			return t.failed
		}
	}
	if err := os.MkdirAll(filepath.Dir(o.spansPath), 0o755); err != nil {
		return err
	}
	if err := t.rec.WriteJSON(o.spansPath); err != nil {
		return err
	}
	out, err := json.Marshal(struct {
		Metrics   map[string]float64 `json:"metrics"`
		BootMS    float64            `json:"boot_stages_ms"`
		RecoverMS float64            `json:"recover_stages_ms"`
		Spans     int                `json:"spans"`
	}{t.metrics, t.bootStagesMS, t.recoverStagesMS, t.rec.Len()})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// bootMirror is the fresh boot, as itm-serve -wal DIR -mesh-agents N runs it.
func (t *tracer) bootMirror() {
	rec, m, o := t.rec, t.metrics, t.o
	prof, _ := faults.ByName("none")
	mesh := experiments.MeshSpec{Agents: o.meshAgents, Rounds: 2, Profile: prof}
	fs := &countingFS{FS: wal.OSFS{}, rec: rec}
	days := o.epochs
	if o.recoverEpochs > days {
		days = o.recoverEpochs
	}
	var journal *wal.WAL
	boot := rec.Do("boot", func() {
		faults.RegisterMetrics()
		rec.Do("wal.open", func() {
			var err error
			journal, _, err = wal.Open(wal.Options{Dir: filepath.Join(o.dir, "trace-boot"), FS: fs})
			t.fail(err)
		})
		if t.failed != nil {
			return
		}
		t.st = mapstore.NewStore()
		t.st.AttachWAL(journal)
		rec.Do("world.build", func() { t.w = world.Build(t.cfg) })
		vantage.RegisterMetrics()
		// EpochEnvs runs the time-invariant campaigns (TLS scan, hit rates,
		// collector view) once on day 0; buildProbes times them apart. Its
		// cost does not depend on the day count, so one call serves both
		// this boot and the longer journal the recovery replays.
		rec.Do("experiments.epoch_envs", func() { t.envs = experiments.EpochEnvs(t.w, days, 0) })
		obs.ActivateTrace("epoch-0")
		rec.Do("traffic.build_matrix", func() { t.mx = t.envs[0].Matrix() })
		for d := 0; d < o.epochs && t.failed == nil; d++ {
			e := t.envs[d]
			at := simtime.Time(d) * simtime.Day
			obs.ActivateTrace("epoch-" + strconv.Itoa(d))
			var md *core.MeshDocument
			rec.Do("vantage.mesh_campaign", func() { md, _ = experiments.RunMeshCampaign(t.w, mesh, at, 0) })
			// Map() forces these in this order; forcing them first leaves
			// Map() with core.BuildMap alone.
			rec.Do("cacheprobe.discovery", func() { e.Discovery() })
			rec.Do("rootlogs.crawl", func() { e.Crawl() })
			var tm *core.TrafficMap
			rec.Do("core.build_map", func() { tm = e.Map() })
			t.maps = append(t.maps, tm)
			rec.Do("mapstore.append", func() {
				_, err := t.st.AppendMapMesh(at, tm, t.mx, md)
				t.fail(err)
			})
		}
		if t.failed == nil {
			t.fail(firstRequest(rec, t.st))
		}
	})
	if t.failed != nil {
		return
	}
	for _, stage := range []string{"world.build", "traffic.build_matrix", "vantage.mesh_campaign",
		"cacheprobe.discovery", "rootlogs.crawl", "core.build_map"} {
		m[stage+"_ms"] = rec.TotalMS(boot, stage)
	}
	m["wal.fsyncs"] = float64(fs.fsyncs)
	m["wal.bytes_written"] = float64(fs.bytes)
	var encoded int
	for _, e := range t.st.Snapshot() {
		encoded += len(e.Encoded)
	}
	m["wal.write_amp"] = float64(fs.bytes) / float64(encoded)
	t.bootMS, t.bootStagesMS, t.bootSpans = rec.DurationMS(boot), rec.ChildrenMS(boot), rec.Len()
	t.fail(journal.Close())
}

// journalBuild writes the journal wal_recover replays: more epochs, no mesh.
func (t *tracer) journalBuild() {
	t.journal = mapstore.NewStore()
	t.rec.Do("journal_build", func() {
		jw, _, err := wal.Open(wal.Options{Dir: t.recoverDir})
		if t.fail(err); err != nil {
			return
		}
		t.journal.AttachWAL(jw)
		for d := 0; d < t.o.recoverEpochs && t.failed == nil; d++ {
			_, err := t.journal.AppendMap(simtime.Time(d)*simtime.Day, t.envs[d].Map(), t.mx)
			t.fail(err)
		}
		t.fail(jw.Close())
	})
}

// buildProbes times alone the stages the mirrored boot runs inside a larger
// call: world.Build's parts, EpochEnvs' campaigns, and Store.Append's.
func (t *tracer) buildProbes() {
	m := t.metrics
	t.rec.Do("build_probes", func() {
		m["topology.generate_ms"] = t.timed("topology.generate", func() { topology.Generate(t.cfg.Topology) })
		m["bgp.compute_all_ms"] = t.timed("bgp.compute_all", func() { bgp.ComputeAll(t.w.Top) })
		probe := experiments.NewEnvFromWorld(t.w)
		m["tlsscan.scan_ms"] = t.timed("tlsscan.scan", func() { probe.Scan() })
		m["cacheprobe.hitrates_ms"] = t.timed("cacheprobe.hitrates", func() { probe.HitRates() })
		m["bgp.observed_view_ms"] = t.timed("bgp.observed_view", func() { probe.Observed() })

		journal, _, err := wal.Open(wal.Options{Dir: filepath.Join(t.o.dir, "trace-probe")})
		if t.fail(err); err != nil {
			return
		}
		for d, tm := range t.maps {
			var doc *core.MapDocument
			m["core.document_ms"] += t.timed("core.document", func() { doc = tm.Document() })
			var enc []byte
			m["mapstore.encode_ms"] += t.timed("mapstore.encode", func() {
				var err error
				enc, err = mapstore.EncodeDocument(doc)
				t.fail(err)
			})
			m["wal.append_ms"] += t.timed("wal.append", func() {
				t.fail(journal.Append(simtime.Time(d)*simtime.Day, enc))
			})
		}
		t.fail(journal.Close())
	})
}

// hit returns a call that sends one GET through h and fails the run on any
// status but 200 and 304.
func (t *tracer) hit(h http.Handler, url string, header ...string) func() {
	return func() {
		if status, _ := serve(h, url, header...); status != http.StatusOK && status != http.StatusNotModified {
			t.fail(fmt.Errorf("GET %s: status %d", url, status))
		}
	}
}

// serveLayers times the serving layers through itm-serve's handler stack.
func (t *tracer) serveLayers() {
	rec, m := t.rec, t.metrics
	latest := t.st.Latest()
	asns, pairs := latest.TopASes(64), latest.WorstMeshPairs(64)
	if len(asns) == 0 || len(pairs) == 0 || t.st.Len() < 2 {
		t.fail(fmt.Errorf("mirrored store has %d epochs, %d ASes, %d mesh pairs", t.st.Len(), len(asns), len(pairs)))
		return
	}
	root := rec.Start("serve")
	defer rec.End(root)
	runtime.GC()
	wrapped, bare := stack(t.st)
	// perCall brackets one micro-benchmark with a span.
	perCall := func(span string, f func()) (us float64) {
		rec.Do(span, func() { us = perCallUS(f) })
		return us
	}
	const topURL = "/v1/top?k=10"
	for _, u := range []struct{ name, url string }{
		{"top", topURL},
		{"as", fmt.Sprintf("/v1/as/%d", asns[0].ASN)},
		{"diff", "/v1/diff/0/1"},
		{"path", fmt.Sprintf("/v1/path/%d/%d", pairs[0].A, pairs[0].B)},
		{"latency", fmt.Sprintf("/v1/latency/%d/%d", pairs[0].A, pairs[0].B)},
		{"map_json", "/v1/map/0"},
		{"map_bin", "/v1/map/0?format=binary"},
	} {
		m["mapstore.hit_us."+u.name] = perCall("mapstore.hit."+u.name, t.hit(wrapped, u.url))
	}
	_, etag := serve(wrapped, topURL)
	m["mapstore.revalidate_us"] = perCall("mapstore.revalidate", t.hit(wrapped, topURL, "If-None-Match", etag))
	m["mapstore.hit_allocs"] = allocsPerCall(1000, t.hit(wrapped, topURL))
	m["admission.wrap_us"] = m["mapstore.hit_us.top"] - perCall("admission.bare", t.hit(bare, topURL))
	m["obs.traced_us"] = perCall("obs.traced", t.hit(wrapped, topURL,
		"traceparent", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")) - m["mapstore.hit_us.top"]
	noop := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	m["obs.instrument_us"] = perCall("obs.instrument", t.hit(obs.InstrumentHandler("GET /benchmark", noop), "/benchmark")) -
		perCall("obs.bare", t.hit(noop, "/benchmark"))

	// Fills are first touches, so each URL yields one sample: 64 ASes at a
	// k nothing asked before, and the journal store's untouched epochs.
	firstTouchUS := func(span string, h http.Handler, urls []string) float64 {
		samples := make([]float64, len(urls))
		for i, url := range urls {
			samples[i] = t.timed(span, t.hit(h, url)) * 1000
		}
		return stats.Median(samples)
	}
	var asURLs, jsonURLs, binURLs []string
	for _, a := range asns {
		asURLs = append(asURLs, fmt.Sprintf("/v1/as/%d?k=7", a.ASN))
	}
	for e := 0; e < t.journal.Len(); e++ {
		jsonURLs = append(jsonURLs, fmt.Sprintf("/v1/map/%d", e))
		binURLs = append(binURLs, fmt.Sprintf("/v1/map/%d?format=binary", e))
	}
	journalStack, _ := stack(t.journal)
	m["mapstore.fill_us.as"] = firstTouchUS("mapstore.fill.as", wrapped, asURLs)
	m["mapstore.fill_us.map_json"] = firstTouchUS("mapstore.fill.map_json", journalStack, jsonURLs)
	m["mapstore.fill_us.map_bin"] = firstTouchUS("mapstore.fill.map_bin", journalStack, binURLs)
}

// recoverMirror is the recovery, as itm-serve -wal DIR runs it on a journal;
// then the replay's two halves, decode and re-append, timed alone.
func (t *tracer) recoverMirror() {
	rec, m := t.rec, t.metrics
	var payloads [][]byte
	var ats []simtime.Time
	for _, e := range t.journal.Snapshot() {
		payloads, ats = append(payloads, e.Encoded), append(ats, e.At)
	}
	t.w, t.envs, t.mx, t.maps, t.st, t.journal = nil, nil, nil, nil, nil, nil
	runtime.GC()

	root := rec.Do("recover", func() {
		faults.RegisterMetrics()
		var (
			journal *wal.WAL
			found   *wal.Recovery
			st      *mapstore.Store
		)
		rec.Do("wal.open", func() {
			var err error
			journal, found, err = wal.Open(wal.Options{Dir: t.recoverDir, FS: &countingFS{FS: wal.OSFS{}, rec: rec}})
			t.fail(err)
		})
		if t.failed != nil {
			return
		}
		rec.Do("mapstore.recover", func() {
			var err error
			st, err = mapstore.RecoverStore(journal, found)
			t.fail(err)
		})
		if t.failed == nil {
			t.fail(firstRequest(rec, st))
		}
		if t.failed == nil {
			t.fail(journal.Close())
		}
	})
	if t.failed != nil {
		return
	}
	m["wal.open_ms"] = rec.TotalMS(root, "wal.open")
	m["mapstore.recover_ms"] = rec.TotalMS(root, "mapstore.recover")
	t.recoverStagesMS = rec.ChildrenMS(root)

	rec.Do("recover_probes", func() {
		docs := make([]*core.MapDocument, len(payloads))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, p := range payloads {
			m["mapstore.decode_ms"] += t.timed("mapstore.decode", func() {
				var err error
				docs[i], err = mapstore.DecodeDocument(p)
				t.fail(err)
			})
		}
		runtime.ReadMemStats(&after)
		m["mapstore.decode_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(len(payloads))
		plain := mapstore.NewStore()
		for i := 0; i < len(docs) && t.failed == nil; i++ {
			m["mapstore.append_ms"] += t.timed("mapstore.append_nowal", func() {
				_, err := plain.Append(ats[i], docs[i])
				t.fail(err)
			})
		}
	})
}

// spanCost measures what recording the spans cost the mirrored boot.
func (t *tracer) spanCost() {
	const calibration = 100000
	scratch := spans.NewRecorder(clock.Now, "")
	start := clock.Now()
	for i := 0; i < calibration; i++ {
		scratch.End(scratch.Start("x"))
	}
	perSpanMS := float64(clock.Now()-start) / float64(time.Millisecond) / calibration
	t.metrics["trace.overhead_ratio"] = perSpanMS * float64(t.bootSpans) / t.bootMS
}
