// Command benchmark is the repo's end-to-end benchmark driver. It builds
// ./cmd/itm-serve from the checkout it runs in, drives the real binary over
// loopback through one named workload, checks every byte it gets back, and
// prints the workload's metrics; the last line of standard output is the
// result as one JSON object. It depends only on itm-serve's documented flags
// and HTTP API — never on itmap's internal packages — so it keeps measuring
// the same thing while the code behind the API changes.
//
// Usage (from the repo root; benchmark/run.sh builds and runs this):
//
//	benchmark --workload cold_boot|wal_recover|serve_hot|serve_fullmap
//	          [--seed 1] [--seconds 20] [--trace 0|1]
//
// With --trace 1 the same workload runs with boundary readings taken from
// the binary's /metrics and /proc entry, the in-process tracer
// (benchmark/_tracer) times each layer's exported functions, and the
// per-layer metrics are printed instead of the end-to-end ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"

	"itmap/benchmark/stats"
)

const buildDir = ".bench_build"

// metricDef names one reported metric and its unit; BENCHMARK.json lists the
// same names.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"}, {"first_byte_s", "s"}, {"rps", "1/s"},
	{"p50_ms", "ms"}, {"p99_ms", "ms"}, {"mbps", "MB/s"},
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	cfg := config{shape: referenceShape}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "cold_boot, wal_recover, serve_hot or serve_fullmap")
	flag.Int64Var(&cfg.seed, "seed", 1, "world seed passed to itm-serve, and request-plan seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1: take boundary readings, run the in-process tracer, print per-layer metrics")
	flag.Parse()
	if trace != 0 && trace != 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: --trace takes 0 or 1, and there are no positional arguments")
		os.Exit(2)
	}
	cfg.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := benchmark(ctx, cfg)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// benchmark runs one workload and returns its result. An error means the
// benchmark itself could not run (no build, set-up failed); wrong or failed
// operations of the program under test are counted in the result instead.
func benchmark(ctx context.Context, cfg config) (res *result, err error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if _, err := os.Stat(filepath.Join("cmd", "itm-serve")); err != nil {
		return nil, fmt.Errorf("run from the repo root: %w", err)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "itm-serve"))
	if err != nil {
		return nil, err
	}
	if err := goBuild(ctx, ".", bin, "./cmd/itm-serve"); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	scratch, err = filepath.Abs(scratch)
	if err != nil {
		return nil, err
	}
	// The servers' logs and WAL directories explain a failure, so they
	// outlive a run that had one.
	defer func() {
		if err == nil && res.Failed == 0 {
			os.RemoveAll(scratch)
		} else {
			fmt.Fprintln(os.Stderr, "benchmark: server logs and WAL directories kept in", scratch)
		}
	}()

	r := newRun(cfg, bin, scratch)
	if err := wl.run(r, ctx); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	for _, line := range r.ref.log {
		fmt.Fprintln(os.Stderr, "wrong:", line)
	}

	s := &r.samples
	res = &result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]value{}}
	fmt.Printf("workload %s  seed %d  scale %s  %gs timed  %d connections\n",
		wl.name, cfg.seed, cfg.scale, cfg.seconds, r.conns)
	fmt.Printf("attempted %d (boots and requests)  failed %d  requests %d, of which %d answered 304\n",
		s.attempted, s.failed, s.requests, s.notModified)
	routes := make([]string, 0, len(s.routes))
	for route := range s.routes {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	for _, route := range routes {
		fmt.Printf("  %-12s %d\n", route, s.routes[route])
	}
	if !cfg.trace {
		if err := s.endToEnd(res); err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		return res, nil
	}

	rep, err := runTracer(ctx, cfg, buildDir, scratch)
	if err != nil {
		return nil, err
	}
	vals, err := r.layerValues(rep)
	if err != nil {
		return nil, err
	}
	for _, m := range perLayer() {
		res.Metrics[m.name] = value{vals[m.name], m.unit}
		fmt.Printf("%-28s %16.6g %s\n", m.name, vals[m.name], m.unit)
	}
	return res, nil
}

// endToEnd fills res with the median of every end-to-end metric's samples
// and prints them. A metric without samples is an error, unless operations
// failed: when every operation that would have given a sample failed (all
// timed boots, say), the run is still reported, as incorrect, with a 0.
func (s *samples) endToEnd(res *result) error {
	for _, m := range endToEnd {
		samples := s.values[m.name]
		switch {
		case len(samples) > 0:
			v := stats.Median(samples)
			res.Metrics[m.name] = value{v, m.unit}
			fmt.Printf("%-14s %14.4f %-5s median of %d\n", m.name, v, m.unit, len(samples))
		case s.failed > 0:
			res.Metrics[m.name] = value{0, m.unit}
			fmt.Printf("%-14s %14s %-5s no samples\n", m.name, "-", m.unit)
		default:
			return fmt.Errorf("no samples for %s", m.name)
		}
	}
	return nil
}
