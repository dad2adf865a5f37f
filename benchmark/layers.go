package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"itmap/benchmark/clock"
	"itmap/benchmark/stats"
)

// This file is the traced run's black-box half: what can be read at the real
// binary's boundary (its /metrics, its /proc entry, the bytes on the socket)
// plus the call into the in-process tracer, which times each layer's
// exported functions. None of it runs with --trace 0.

// tracerMetrics come from the in-process tracer verbatim.
var tracerMetrics = []metricDef{
	{"world.build_ms", "ms"}, {"topology.generate_ms", "ms"}, {"bgp.compute_all_ms", "ms"},
	{"traffic.build_matrix_ms", "ms"}, {"cacheprobe.discovery_ms", "ms"}, {"cacheprobe.hitrates_ms", "ms"},
	{"rootlogs.crawl_ms", "ms"}, {"tlsscan.scan_ms", "ms"}, {"bgp.observed_view_ms", "ms"},
	{"core.build_map_ms", "ms"}, {"core.document_ms", "ms"}, {"vantage.mesh_campaign_ms", "ms"},
	{"mapstore.encode_ms", "ms"}, {"mapstore.append_ms", "ms"}, {"wal.append_ms", "ms"},
	{"wal.fsyncs", "count"}, {"wal.bytes_written", "B"}, {"wal.write_amp", "ratio"},
	{"wal.open_ms", "ms"}, {"mapstore.decode_ms", "ms"}, {"mapstore.decode_allocs", "count"},
	{"mapstore.recover_ms", "ms"},
	{"mapstore.hit_us.top", "us"}, {"mapstore.hit_us.as", "us"}, {"mapstore.hit_us.diff", "us"},
	{"mapstore.hit_us.path", "us"}, {"mapstore.hit_us.latency", "us"},
	{"mapstore.hit_us.map_json", "us"}, {"mapstore.hit_us.map_bin", "us"},
	{"mapstore.revalidate_us", "us"}, {"mapstore.hit_allocs", "count"},
	{"admission.wrap_us", "us"}, {"obs.instrument_us", "us"}, {"obs.traced_us", "us"},
	{"mapstore.fill_us.as", "us"}, {"mapstore.fill_us.map_json", "us"}, {"mapstore.fill_us.map_bin", "us"},
	{"trace.overhead_ratio", "ratio"},
}

// boundaryMetrics are measured by this process at the real binary's edge.
var boundaryMetrics = []metricDef{
	{"http.transport_us", "us"}, {"http.wire_bytes_per_req", "B"},
	{"mapstore.cache_hit_ratio", "ratio"}, {"mapstore.cache_304_ratio", "ratio"},
	{"mapstore.cache_fills", "count"}, {"mapstore.cache_bypass", "count"}, {"admission.shed", "count"},
	{"serve.cpu_us_per_req", "us"}, {"serve.boot_cpu_s", "s"}, {"serve.peak_rss_mb", "MB"},
	{"serve.unattributed_ms", "ms"},
}

func perLayer() []metricDef {
	return append(append([]metricDef(nil), tracerMetrics...), boundaryMetrics...)
}

// scrapedFamilies are the /metrics counters summed (over labels, and over
// every server the run boots) after each timed phase.
var scrapedFamilies = []string{
	"itm_cache_hits_total", "itm_cache_misses_total", "itm_cache_fills_total",
	"itm_cache_not_modified_total", "itm_cache_bypass_total", "itm_admission_shed_total",
}

const rttProbes = 200

// boundary accumulates the black-box layer readings of a traced run.
type boundary struct {
	bootCPUS  []float64
	peakRSSMB float64
	loopCPUS  float64
	requests  int
	wireBytes int64
	scraped   map[string]float64
	rtt304US  []float64
	problems  []string
}

func (b *boundary) problem(err error) {
	if err != nil {
		b.problems = append(b.problems, err.Error())
	}
}

// atFirstByte records the CPU the boot cost and returns it.
func (b *boundary) atFirstByte(srv *server) float64 {
	cpu := b.cpu(srv)
	b.bootCPUS = append(b.bootCPUS, cpu)
	return cpu
}

// cpu reads the process's CPU clock.
func (b *boundary) cpu(srv *server) float64 {
	cpu, err := procCPU(srv.pid())
	b.problem(err)
	return cpu
}

// afterLoop reads everything the loop moved: CPU, counters, peak memory;
// then, with the server idle again, the round trip of a bare revalidation.
func (b *boundary) afterLoop(ctx context.Context, srv *server, l *loopResult, cpuBefore float64) {
	b.loopCPUS += b.cpu(srv) - cpuBefore
	b.requests += l.requests
	b.wireBytes += l.wireBytes
	rss, err := procPeakRSS(srv.pid())
	b.problem(err)
	if rss > b.peakRSSMB {
		b.peakRSSMB = rss
	}
	client := &http.Client{Timeout: bootTimeout}
	defer client.CloseIdleConnections()
	text, err := get(ctx, client, srv.base+"/metrics")
	b.problem(err)
	if b.scraped == nil {
		b.scraped = map[string]float64{}
	}
	for name, v := range sumFamilies(text, scrapedFamilies) {
		b.scraped[name] += v
	}
	b.problem(b.probeRTT(ctx, client, srv.base))
}

// probeRTT times sequential 304 revalidations of the first-byte URL over one
// keep-alive connection: the handler does next to nothing, so what remains
// is net/http, the kernel and the loopback — the share no itmap change moves.
func (b *boundary) probeRTT(ctx context.Context, client *http.Client, base string) error {
	var etag string
	for i := 0; i <= rttProbes; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+firstByteURL, nil)
		if err != nil {
			return err
		}
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		start := clock.Now()
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if i == 0 {
			etag = resp.Header.Get("ETag")
			continue
		}
		if resp.StatusCode != http.StatusNotModified {
			return fmt.Errorf("rtt probe: status %d, want 304", resp.StatusCode)
		}
		b.rtt304US = append(b.rtt304US, float64(clock.Now()-start)/float64(time.Microsecond))
	}
	return nil
}

// sumFamilies sums the samples of the named families in a Prometheus text
// exposition, over all label sets.
func sumFamilies(text []byte, families []string) map[string]float64 {
	want := map[string]bool{}
	for _, f := range families {
		want[f] = true
	}
	sums := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if !want[name] {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			sums[name] += v
		}
	}
	return sums
}

// tracerReport is what the in-process tracer prints.
type tracerReport struct {
	Metrics   map[string]float64 `json:"metrics"`
	BootMS    float64            `json:"boot_stages_ms"`
	RecoverMS float64            `json:"recover_stages_ms"`
}

// runTracer builds and runs the in-process tracer. It is the only part of
// the benchmark that links against itmap's internal packages, and it lives
// in a directory the go tool's ./... skips, so the end-to-end driver keeps
// building when those packages' signatures change.
func runTracer(ctx context.Context, cfg config, buildDir, scratch string) (*tracerReport, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "itm-tracer"))
	if err != nil {
		return nil, err
	}
	if err := goBuild(ctx, "benchmark", bin, "./_tracer"); err != nil {
		return nil, err
	}
	out := filepath.Join("benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, bin,
		"-workload", cfg.workload, "-scale", cfg.scale, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-epochs", strconv.Itoa(cfg.epochs), "-recover-epochs", strconv.Itoa(cfg.recoverEpochs),
		"-mesh-agents", strconv.Itoa(cfg.meshAgents), "-dir", scratch,
		"-spans", filepath.Join(out, "trace-"+cfg.workload+".json"))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("tracer: %w", err)
	}
	var rep tracerReport
	if err := json.Unmarshal(stdout, &rep); err != nil {
		return nil, fmt.Errorf("tracer output: %w", err)
	}
	return &rep, nil
}

// layerValues joins the tracer's report with the boundary readings into the
// per-layer metrics, in perLayer() order.
func (r *run) layerValues(rep *tracerReport) (map[string]float64, error) {
	b := &r.layers
	if len(b.problems) > 0 {
		return nil, fmt.Errorf("boundary readings failed: %s", strings.Join(b.problems, "; "))
	}
	vals := map[string]float64{}
	for _, m := range tracerMetrics {
		v, ok := rep.Metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("tracer did not report %s", m.name)
		}
		vals[m.name] = v
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hits, misses := b.scraped["itm_cache_hits_total"], b.scraped["itm_cache_misses_total"]
	notMod, bypass := b.scraped["itm_cache_not_modified_total"], b.scraped["itm_cache_bypass_total"]
	vals["mapstore.cache_hit_ratio"] = ratio(hits, hits+misses+bypass)
	vals["mapstore.cache_304_ratio"] = ratio(notMod, notMod+hits+misses+bypass)
	vals["mapstore.cache_fills"] = b.scraped["itm_cache_fills_total"]
	vals["mapstore.cache_bypass"] = bypass
	vals["admission.shed"] = b.scraped["itm_admission_shed_total"]
	vals["http.transport_us"] = stats.Median(b.rtt304US) - vals["mapstore.revalidate_us"]
	vals["http.wire_bytes_per_req"] = ratio(float64(b.wireBytes), float64(b.requests))
	vals["serve.cpu_us_per_req"] = ratio(b.loopCPUS*1e6, float64(b.requests))
	vals["serve.boot_cpu_s"] = stats.Median(b.bootCPUS)
	vals["serve.peak_rss_mb"] = b.peakRSSMB
	// The stages the tracer mirrors are the ones that block this workload's
	// first byte: the replay for wal_recover, the fresh build for the rest.
	stages := rep.BootMS
	if r.cfg.workload == "wal_recover" {
		stages = rep.RecoverMS
	}
	vals["serve.unattributed_ms"] = stats.Median(r.samples.values["first_byte_s"])*1000 - stages
	return vals, nil
}

// procCPU returns the user+system CPU seconds a process has used, from
// /proc/<pid>/stat (fields 14 and 15, in 100 Hz ticks).
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis.
	fields := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	return (utime + stime) / 100, nil
}

// procPeakRSS returns the process's peak resident set in MB (VmHWM).
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
