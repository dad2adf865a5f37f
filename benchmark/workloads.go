package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"itmap/benchmark/clock"
	"itmap/benchmark/stats"
)

// warmUp is how long the serve workloads drive their stream before timing,
// so the response cache holds the working set and the connections are open.
const warmUp = 2 * time.Second

// workload is one entry of BENCHMARK.json's workloads list.
type workload struct {
	name string
	why  string
	run  func(r *run, ctx context.Context) error
}

var workloads = []workload{
	{"cold_boot", "fresh boots with -wal and mesh: the whole measurement pipeline, encode and fsync do the work; then the first touch of every URL (cache fills)", (*run).coldBoot},
	{"wal_recover", "boots from a 16-epoch journal after SIGKILL: WAL scan, decode and re-append do the work, the pipeline none; bytes must equal the pre-crash server", (*run).walRecover},
	{"serve_hot", "closed loop of small skewed revalidating requests: per-request handler cost dominates and bytes do not; the working set fits the cache", (*run).serveHot},
	{"serve_fullmap", "closed loop of unconditional whole-map downloads (JSON and ITMB): body delivery dominates, the same cache used the other way", (*run).serveFullmap},
}

// shape is the world the workloads boot. It is fixed, so that no two results
// under the same metric names come from different worlds: no flag sets it,
// and only the smoke test, in-package, swaps in a smaller one.
type shape struct {
	scale         string
	epochs        int // of a fresh boot
	recoverEpochs int // in wal_recover's journal
	meshAgents    int // vantage fleet of a fresh boot
}

var referenceShape = shape{scale: "small", epochs: 3, recoverEpochs: 16, meshAgents: 24}

// config is what one invocation was asked to do.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	shape
}

// run accumulates one invocation's samples.
type run struct {
	cfg     config
	bin     string // itm-serve binary
	dir     string // scratch directory for WAL dirs and server logs
	conns   int
	ref     *reference
	sync    []request // boot workloads: the timed first-touch downloads
	check   []request // boot workloads: the untimed byte-comparison pass
	boots   int       // boots started, for log and WAL directory names
	samples samples
	layers  boundary
}

// samples are the per-boot or per-window values the end-to-end
// metrics are medians of, by metric name, and the run's operation counts.
type samples struct {
	values      map[string][]float64
	attempted   int
	failed      int
	requests    int
	notModified int
	routes      map[string]int
}

func newRun(cfg config, bin, dir string) *run {
	conns := runtime.NumCPU()
	if conns > 4 {
		conns = 4
	}
	return &run{cfg: cfg, bin: bin, dir: dir, conns: conns, ref: newReference(),
		samples: samples{values: map[string][]float64{}, routes: map[string]int{}}}
}

// budget is the length of the timed phase.
func (r *run) budget() time.Duration {
	return time.Duration(r.cfg.seconds * float64(time.Second))
}

func newConns(n int) []*conn {
	conns := make([]*conn, n)
	for i := range conns {
		conns[i] = newConn()
	}
	return conns
}

func closeConns(conns []*conn) {
	for _, c := range conns {
		c.close()
	}
}

// coldSpec is the fresh boot every workload but wal_recover starts from.
func (r *run) coldSpec(walDir string) bootSpec {
	return bootSpec{scale: r.cfg.scale, seed: r.cfg.seed, epochs: r.cfg.epochs,
		meshAgents: r.cfg.meshAgents, walDir: walDir}
}

func (r *run) boot(ctx context.Context, spec bootSpec) (*server, time.Duration, error) {
	r.boots++
	return boot(ctx, r.bin, spec, filepath.Join(r.dir, fmt.Sprintf("serve-%d.log", r.boots)))
}

func (r *run) freshDir() (string, error) {
	return os.MkdirTemp(r.dir, "wal-")
}

// discover asks the server which epochs, ASes and mesh pairs it serves.
func discover(ctx context.Context, base string) (*catalog, error) {
	client := &http.Client{Timeout: bootTimeout}
	defer client.CloseIdleConnections()
	var epochs struct {
		Epochs []struct {
			ID        int `json:"id"`
			MeshPairs int `json:"mesh_pairs"`
		} `json:"epochs"`
	}
	var top struct {
		Top []struct {
			ASN uint32 `json:"asn"`
		} `json:"top"`
	}
	var worst struct {
		Top []struct {
			A uint32 `json:"a"`
			B uint32 `json:"b"`
		} `json:"top"`
	}
	fetch := func(url string, into any) error {
		body, err := get(ctx, client, base+url)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(body, into); err != nil {
			return fmt.Errorf("GET %s: %w", url, err)
		}
		return nil
	}
	if err := fetch("/v1/epochs", &epochs); err != nil {
		return nil, err
	}
	if err := fetch("/v1/top?k=64", &top); err != nil {
		return nil, err
	}
	cat := &catalog{}
	mesh := len(epochs.Epochs) > 0
	for _, e := range epochs.Epochs {
		cat.epochs = append(cat.epochs, e.ID)
		mesh = mesh && e.MeshPairs > 0
	}
	for _, t := range top.Top {
		cat.asns = append(cat.asns, t.ASN)
	}
	if mesh {
		if err := fetch("/v1/latency/top?k=64", &worst); err != nil {
			return nil, err
		}
		for _, p := range worst.Top {
			cat.pairs = append(cat.pairs, [2]uint32{p.A, p.B})
		}
	}
	if len(cat.epochs) == 0 || len(cat.asns) == 0 {
		return nil, fmt.Errorf("discovery found %d epochs and %d ASes", len(cat.epochs), len(cat.asns))
	}
	return cat, nil
}

func (s *samples) add(metric string, v float64) {
	s.values[metric] = append(s.values[metric], v)
}

// count folds a phase's operations into the run's totals.
func (s *samples) count(l *loopResult) {
	s.attempted += l.requests
	s.failed += l.failed
	s.requests += l.requests
	s.notModified += l.notModified
	for route, n := range l.routes {
		s.routes[route] += n
	}
}

// window is how long a slice of a timed loop is reported on its own. A run's
// rate and latency metrics are medians over its windows, so a disturbance
// shorter than half the run does not move them.
const window = time.Second

// recordWindow records one window's rate and, from its completed requests,
// its latency percentiles. A window in which nothing completed has a rate,
// 0, and no latencies: a stall must lower the run's rate, not vanish.
func (s *samples) recordWindow(events []event, length time.Duration) {
	var bytes int
	lat := make([]float64, len(events))
	for i, e := range events {
		bytes += e.bytes
		lat[i] = e.latencyMS
	}
	s.add("rps", float64(len(events))/length.Seconds())
	s.add("mbps", float64(bytes)/1e6/length.Seconds())
	if len(events) == 0 {
		return
	}
	s.add("p50_ms", stats.Percentile(lat, 50))
	s.add("p99_ms", stats.Percentile(lat, 99))
}

// recordLoop cuts a timed loop of the given length into equal windows of
// about one second, by completion time, and records each.
func (s *samples) recordLoop(l *loopResult, length time.Duration) {
	s.count(l)
	n := int(length / window)
	if n < 1 {
		n = 1
	}
	each := length / time.Duration(n)
	cut := make([][]event, n)
	for _, e := range l.events {
		if i := int(e.end / each); i < n { // the last reply may land past the end
			cut[i] = append(cut[i], e)
		}
	}
	for _, events := range cut {
		s.recordWindow(events, each)
	}
}

// recordPass records a boot's timed first-touch pass: one window, as long as
// the pass took.
func (s *samples) recordPass(l *loopResult) {
	s.count(l)
	s.recordWindow(l.events, l.elapsed)
}

// pass fetches every URL of list once over n fresh connections and checks
// the replies against everything this run saw before.
func (r *run) pass(ctx context.Context, srv *server, list []request, n int) loopResult {
	conns := newConns(n)
	defer closeConns(conns)
	return runLoop(ctx, srv.base, conns, listSource(list), 0, r.ref)
}

// referenceBoot is the boot workloads' set-up: boot, discover, and take the
// reference answers every timed boot is checked against.
func (r *run) referenceBoot(ctx context.Context, spec bootSpec) error {
	srv, _, err := r.boot(ctx, spec)
	if err != nil {
		return err
	}
	defer srv.kill()
	cat, err := discover(ctx, srv.base)
	if err != nil {
		return err
	}
	r.sync, r.check = firstTouchPlan(r.cfg.seed, cat)
	for _, list := range [][]request{r.sync, r.check} {
		if l := r.pass(ctx, srv, list, r.conns); l.failed > 0 {
			return fmt.Errorf("set-up: %d of %d replies wrong: %v", l.failed, l.requests, r.ref.log)
		}
	}
	return nil
}

// timedBoots boots spec again and again until --seconds are spent. Each boot
// contributes one first-byte sample and one timed first-touch sync; the check
// pass after it is not timed.
func (r *run) timedBoots(ctx context.Context, spec func() (bootSpec, error)) error {
	for start := clock.Now(); clock.Now()-start < r.budget() && ctx.Err() == nil; {
		sp, err := spec()
		if err != nil {
			return err
		}
		r.samples.attempted++
		srv, firstByte, err := r.boot(ctx, sp)
		if err != nil {
			r.samples.failed++
			r.ref.fail("boot %d: %v", r.boots, err)
			continue
		}
		r.samples.add("first_byte_s", firstByte.Seconds())
		var cpuBefore float64
		if r.cfg.trace {
			cpuBefore = r.layers.atFirstByte(srv)
		}
		// One connection: each download then has the server to itself, so
		// its latency does not depend on which other download it overlapped.
		l := r.pass(ctx, srv, r.sync, 1)
		r.samples.recordPass(&l)
		if r.cfg.trace {
			r.layers.afterLoop(ctx, srv, &l, cpuBefore)
		}
		l = r.pass(ctx, srv, r.check, r.conns)
		r.samples.count(&l)
		srv.kill()
	}
	return ctx.Err()
}

func (r *run) coldBoot(ctx context.Context) error {
	setup := clock.Now()
	dir, err := r.freshDir()
	if err != nil {
		return err
	}
	if err := r.referenceBoot(ctx, r.coldSpec(dir)); err != nil {
		return err
	}
	r.samples.add("setup_s", (clock.Now() - setup).Seconds())

	return r.timedBoots(ctx, func() (bootSpec, error) {
		dir, err := r.freshDir()
		return r.coldSpec(dir), err
	})
}

func (r *run) walRecover(ctx context.Context) error {
	setup := clock.Now()
	dir, err := r.freshDir()
	if err != nil {
		return err
	}
	// Mesh sections are not journaled, so the journal is built without them:
	// otherwise the recovered server could not equal the pre-crash one.
	spec := bootSpec{scale: r.cfg.scale, seed: r.cfg.seed, epochs: r.cfg.recoverEpochs, walDir: dir}
	if err := r.referenceBoot(ctx, spec); err != nil {
		return err
	}
	// One discarded recovery: the first replay also repairs a torn tail.
	srv, _, err := r.boot(ctx, spec)
	if err != nil {
		return err
	}
	srv.kill()
	r.samples.add("setup_s", (clock.Now() - setup).Seconds())

	return r.timedBoots(ctx, func() (bootSpec, error) { return spec, nil })
}

// serve is the serve workloads' run: cold boot, discovery and warm-up are the
// set-up; then one closed loop per connection, each on a seeded stream of its
// own from plan, runs for --seconds against the same server.
func (r *run) serve(ctx context.Context, plan func(worker int, cat *catalog) (func() request, error)) error {
	setup := clock.Now()
	srv, firstByte, err := r.boot(ctx, r.coldSpec(""))
	if err != nil {
		return err
	}
	defer srv.kill()
	r.samples.add("first_byte_s", firstByte.Seconds())
	if r.cfg.trace {
		r.layers.atFirstByte(srv)
	}
	cat, err := discover(ctx, srv.base)
	if err != nil {
		return err
	}
	conns := newConns(r.conns)
	defer closeConns(conns)
	nexts := make([]func() request, len(conns))
	for w := range nexts {
		if nexts[w], err = plan(w, cat); err != nil {
			return err
		}
	}
	src := func(w int) (request, bool) { return nexts[w](), true }
	if l := runLoop(ctx, srv.base, conns, src, warmUp, r.ref); l.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d replies wrong: %v", l.failed, l.requests, r.ref.log)
	}
	var cpuBefore float64
	if r.cfg.trace {
		cpuBefore = r.layers.cpu(srv)
	}
	r.samples.add("setup_s", (clock.Now() - setup).Seconds())

	l := runLoop(ctx, srv.base, conns, src, r.budget(), r.ref)
	r.samples.recordLoop(&l, r.budget())
	if r.cfg.trace {
		r.layers.afterLoop(ctx, srv, &l, cpuBefore)
	}
	return ctx.Err()
}

func (r *run) serveHot(ctx context.Context) error {
	return r.serve(ctx, func(worker int, cat *catalog) (func() request, error) {
		p, err := newHotPlan(r.cfg.seed, worker, cat)
		if err != nil {
			return nil, err
		}
		return p.next, nil
	})
}

func (r *run) serveFullmap(ctx context.Context) error {
	return r.serve(ctx, func(worker int, cat *catalog) (func() request, error) {
		p, err := newFullmapPlan(r.cfg.seed, worker, cat)
		if err != nil {
			return nil, err
		}
		return p.next, nil
	})
}
