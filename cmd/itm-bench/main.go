// Command itm-bench distills `go test -bench` output into a JSON file of
// deterministic performance counters. Wall-clock metrics (ns/op, MB/s)
// depend on the machine and are dropped; allocation counts, bytes per
// operation, iteration counts, and custom b.ReportMetric counters (e.g.
// encoded_bytes) are pure functions of the code and the fixed -benchtime,
// so CI can diff the file against the committed baseline.
//
// With -campaign it additionally runs a tiny seeded measurement campaign
// in-process against a fresh observability set and distills the stable
// (non-volatile) metric families — probe outcomes, shard counts, sections
// shared — into a "Campaign/obs" entry. Those counters are pure functions
// of (seed, campaign shape), so they diff cleanly across machines too.
//
// With -loadgen it also replays a seeded itm-loadgen mix in-process against
// a freshly built store and records the client-side deterministic ledger
// ("Loadgen/counters") plus the server-side response-cache families
// ("Loadgen/obs", the itm_cache_* counters). Wall-clock figures are not
// this file's business: they are measured by benchmark/ (BENCHMARK.json).
//
// With -mesh it builds a mesh-enabled store (vantage fleet campaigns per
// epoch), replays the user↔user mesh mix against /v1/path + /v1/latency,
// and records the client ledger ("Mesh/counters") plus the stable mesh and
// cache families ("Mesh/obs").
//
// With -overload it drives the phased admission-control scenario
// (mapstore.OverloadScenario) against a fresh obs set and records the
// shed/admit ledger plus the itm_admission_* families ("Overload/obs").
// The phased orchestration makes the counts exact — admitted ==
// capacity + queue, shed == extra — independent of scheduling, so they
// diff cleanly.
//
// With -slo it builds a mesh-enabled store, replays the consumer mix through
// the admission valve itm-serve puts in front of it, and records the SLO
// engine's burn-rate judgment ("SLO/obs"): per-objective
// status ordinals, max burn rates, and per-window SLI/bad/total — the
// regression trip-wire for "fast and reliable under load".
//
// Every in-process section builds its store through one helper (buildStore
// → experiments.BuildEpochStore, the path itm-serve boots through) and reads
// the registry through one (obsCounters).
//
// Usage:
//
//	go test -bench ... -benchmem -benchtime 8x ./... | itm-bench -o BENCH_serve.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"

	"itmap/internal/experiments"
	"itmap/internal/loadgen"
	"itmap/internal/mapstore"
	"itmap/internal/obs"
	"itmap/internal/obs/history"
	"itmap/internal/obs/slo"
	"itmap/internal/world"
)

// benchHeader documents the file's determinism contract. The "0_" prefix
// makes it sort first under encoding/json's byte-wise key ordering, so the
// contract reads as a header comment.
var benchHeader = map[string]string{
	"_1": "Deterministic bench counters distilled by cmd/itm-bench. Every section",
	"_2": "is a pure function of (code, seeds, -benchtime): allocation counts, campaign/serving/SLO",
	"_3": "counters, client ledgers. CI regenerates the file and diffs it against this baseline.",
}

// swapFresh isolates one in-process scenario: a fresh observability set and
// a fresh telemetry history ring, restored on return, so sections never
// leak counters (or history samples) into each other.
func swapFresh() func() {
	prevObs := obs.Swap(obs.NewSet())
	prevRing := history.Swap(history.NewRing(0))
	return func() {
		obs.Swap(prevObs)
		history.Swap(prevRing)
	}
}

// gomaxprocsSuffix strips the trailing -N parallelism tag from a benchmark
// name: the same bench on a different machine keeps the same key.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// volatile units vary run-to-run or machine-to-machine and are excluded.
var volatile = map[string]bool{"ns/op": true, "MB/s": true}

// fuzzy units are deterministic to a fraction of a percent but jitter in
// the low digits (sync.Pool reuse, map growth thresholds, goroutine
// bookkeeping), so they are rounded to 2 significant digits; a real
// regression still moves them.
var fuzzy = map[string]bool{"B/op": true, "allocs/op": true}

func sigRound(v float64) float64 {
	if v == 0 {
		return 0
	}
	scale := math.Pow(10, math.Floor(math.Log10(math.Abs(v)))-1)
	return math.Round(v/scale) * scale
}

func parse(lines *bufio.Scanner) (map[string]map[string]float64, error) {
	out := map[string]map[string]float64{}
	for lines.Scan() {
		fields := strings.Fields(lines.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		ops, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue // e.g. a verbose-mode "BenchmarkX" progress line
		}
		m := map[string]float64{"ops": ops}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q", name, fields[i])
			}
			unit := fields[i+1]
			if volatile[unit] {
				continue
			}
			if fuzzy[unit] {
				v = sigRound(v)
			}
			m[unit] = v
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("duplicate benchmark %s", name)
		}
		out[name] = m
	}
	return out, lines.Err()
}

// buildStore runs a tiny-world campaign of the given length into a fresh
// store; meshAgents > 0 adds the per-epoch vantage fleet campaigns.
func buildStore(seed int64, days, meshAgents int) (*mapstore.Store, error) {
	st := mapstore.NewStore()
	err := experiments.BuildEpochStore(st, world.Build(world.Tiny(seed)), days, 0,
		experiments.MeshSpec{Agents: meshAgents, Rounds: 2})
	return st, err
}

// obsCounters returns every stable metric series whose family name starts
// with one of prefixes (all of them when none is given), keyed
// name{label=value}....
func obsCounters(prefixes ...string) map[string]float64 {
	vals := map[string]float64{}
	obs.Metrics().Visit(func(name string, labels []obs.Label, value float64) {
		keep := len(prefixes) == 0
		for _, p := range prefixes {
			keep = keep || strings.HasPrefix(name, p)
		}
		if !keep {
			return
		}
		key := name
		for _, l := range labels {
			key += "{" + l.Key + "=" + l.Value + "}"
		}
		vals[key] = value
	})
	return vals
}

// campaignCounters runs a 2-epoch tiny-world campaign against a fresh
// observability set and returns every stable metric series as one flat
// counter map. Swapping the set in (and back out) keeps the numbers
// independent of whatever else the process has already counted.
func campaignCounters(seed int64) (map[string]float64, error) {
	defer swapFresh()()
	if _, err := buildStore(seed, 2, 0); err != nil {
		return nil, err
	}
	return obsCounters(), nil
}

// loadgenCounters replays a seeded query mix in-process against a fresh
// tiny-world store and returns the client-side deterministic ledger plus
// the server-side itm_cache_* families. Both are pure functions of (world
// seed, plan seed, request count): key-affinity sharding keeps them
// worker-count-invariant.
func loadgenCounters(seed int64) (client, server map[string]float64, err error) {
	defer swapFresh()()
	st, err := buildStore(seed, 3, 0)
	if err != nil {
		return nil, nil, err
	}
	res, err := loadgen.Run(loadgen.Config{Seed: seed, Requests: 2000, Workers: 4},
		loadgen.HandlerDoer{Handler: mapstore.NewHandler(st)})
	if err != nil {
		return nil, nil, err
	}
	return res.Counters.Flat(), obsCounters("itm_cache_"), nil
}

// meshCounters builds a mesh-enabled store in-process, replays the mesh
// request mix against it, and returns the client ledger plus the stable
// mesh-relevant obs families (itm_mesh_* from the vantage campaign,
// itm_mapstore_mesh_* from ingestion, itm_cache_* from serving). All pure
// functions of (world seed, plan seed), worker-count-invariant.
func meshCounters(seed int64) (client, server map[string]float64, err error) {
	defer swapFresh()()
	st, err := buildStore(seed, 2, 48)
	if err != nil {
		return nil, nil, err
	}
	res, err := loadgen.Run(loadgen.Config{Seed: seed, Requests: 1000, Workers: 4, Mix: "mesh"},
		loadgen.HandlerDoer{Handler: mapstore.NewHandler(st)})
	if err != nil {
		return nil, nil, err
	}
	return res.Counters.Flat(), obsCounters("itm_mesh_", "itm_mapstore_mesh_", "itm_cache_"), nil
}

// overloadCounters runs the deterministic overload scenario against a
// fresh obs set: a gated handler holds `capacity` slots and a full queue
// while `extra` arrivals shed, so every number below is exact.
func overloadCounters() map[string]float64 {
	defer swapFresh()()
	res := mapstore.OverloadScenario(4, 8, 16)
	vals := obsCounters("itm_admission_")
	vals["issued"] = float64(res.Issued)
	vals["admitted"] = float64(res.Admitted)
	vals["shed"] = float64(res.Shed)
	return vals
}

// sloStatusCode encodes an objective status as a small ordinal so the SLO
// section diffs numerically: 0 met, 1 no_data, 2 at_risk, 3 violated.
func sloStatusCode(status string) float64 {
	switch status {
	case slo.StatusMet:
		return 0
	case slo.StatusNoData:
		return 1
	case slo.StatusAtRisk:
		return 2
	case slo.StatusViolated:
		return 3
	}
	return -1
}

// sloCounters builds a mesh-enabled store, replays the consumer mix, and
// distills the SLO engine's burn-rate judgment into flat counters. Every
// input is a deterministic counter and windows are history samples, so the
// section is a pure function of (world seed, plan seed).
func sloCounters(seed int64) (map[string]float64, error) {
	defer swapFresh()()
	st, err := buildStore(seed, 3, 48)
	if err != nil {
		return nil, err
	}
	// Behind the admission valve, as itm-serve serves it: the valve's
	// counters are what latency_p99_proxy reads.
	served := mapstore.NewAdmission(mapstore.AdmissionConfig{}).Wrap(mapstore.NewHandler(st))
	if _, err := loadgen.Run(loadgen.Config{Seed: seed, Requests: 1500, Workers: 4},
		loadgen.HandlerDoer{Handler: served}); err != nil {
		return nil, err
	}
	rep := (&slo.Engine{Objectives: slo.ServingObjectives()}).Evaluate()
	vals := map[string]float64{
		"generation": float64(rep.Generation),
		"all_met":    0,
	}
	if rep.AllMet {
		vals["all_met"] = 1
	}
	for _, o := range rep.Objectives {
		p := "objective{name=" + o.Name + "}"
		vals[p+" status"] = sloStatusCode(o.Status)
		vals[p+" max_burn_rate"] = o.MaxBurnRate
		for i, w := range o.Windows {
			wp := fmt.Sprintf("%s window{idx=%d,samples=%d}", p, i, w.Samples)
			vals[wp+" sli"] = w.SLI
			vals[wp+" bad"] = w.Bad
			vals[wp+" total"] = w.Total
		}
	}
	return vals, nil
}

func main() {
	outPath := flag.String("o", "BENCH_serve.json", "output file")
	campaign := flag.Bool("campaign", false, "also run a tiny seeded campaign and record its stable obs counters")
	campaignSeed := flag.Int64("campaign-seed", 42, "seed for the -campaign run")
	loadgenRun := flag.Bool("loadgen", false, "also replay a seeded itm-loadgen mix and record its deterministic counters")
	loadgenSeed := flag.Int64("loadgen-seed", 7, "seed for the -loadgen replay (world and plan)")
	overloadRun := flag.Bool("overload", false, "also run the deterministic admission-control overload scenario")
	meshRun := flag.Bool("mesh", false, "also build a mesh-enabled store, replay the mesh mix, and record its deterministic counters")
	meshSeed := flag.Int64("mesh-seed", 9, "seed for the -mesh run (world and plan)")
	sloRun := flag.Bool("slo", false, "also evaluate the serving SLOs over a seeded campaign and record the burn-rate judgment")
	sloSeed := flag.Int64("slo-seed", 11, "seed for the -slo run (world and plan)")
	flag.Parse()

	parsed, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "itm-bench:", err)
		os.Exit(1)
	}
	results := map[string]any{}
	for k, v := range parsed {
		results[k] = v
	}
	if *campaign {
		vals, err := campaignCounters(*campaignSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "itm-bench:", err)
			os.Exit(1)
		}
		results["Campaign/obs"] = vals
	}
	if *loadgenRun {
		client, server, err := loadgenCounters(*loadgenSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "itm-bench:", err)
			os.Exit(1)
		}
		results["Loadgen/counters"] = client
		results["Loadgen/obs"] = server
	}
	if *overloadRun {
		results["Overload/obs"] = overloadCounters()
	}
	if *meshRun {
		client, server, err := meshCounters(*meshSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "itm-bench:", err)
			os.Exit(1)
		}
		results["Mesh/counters"] = client
		results["Mesh/obs"] = server
	}
	if *sloRun {
		vals, err := sloCounters(*sloSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "itm-bench:", err)
			os.Exit(1)
		}
		results["SLO/obs"] = vals
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "itm-bench: no benchmark lines on stdin")
		os.Exit(1)
	}
	results["0_header"] = benchHeader
	blob, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "itm-bench:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*outPath, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "itm-bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "itm-bench: wrote %d benchmarks to %s\n", len(results), *outPath)
}
