// Command compare reads the two result files written by benchmark/pairs.sh —
// a base and a candidate, run in pairs of the same seed — applies the bounds
// BENCHMARK.json fixes, and prints one row per (metric, workload):
//
//	better        the candidate wins at least nine tenths of the pairs (ties
//	              count for neither side) and its median is better by more
//	              than the distance between the base's own quartiles
//	within bound  neither better nor worse
//	worse         the candidate's median is worse by more than the bound
//	unresolved    the run-to-run spread of either side is wider than the
//	              bound, so the bound cannot be checked — unless every run of
//	              one side beats every run of the other
//
// It exits 1 when any row is worse or unresolved.
//
//	go run ./compare [-benchmark ../BENCHMARK.json] base.jsonl candidate.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"itmap/benchmark/stats"
)

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

type value struct {
	Value float64 `json:"value"`
}

type line struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   struct {
		Correct bool             `json:"correct"`
		Metrics map[string]value `json:"metrics"`
	} `json:"result"`
}

// runs holds, per workload, each run's seed and metrics in file order.
type runs map[string][]run

type run struct {
	seed    int64
	metrics map[string]value
}

// column returns one metric's value in every run of a workload that has it.
func (r runs) column(workload, metric string) []float64 {
	var out []float64
	for _, run := range r[workload] {
		if v, ok := run.metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// pairs returns how many same-seed pairs of one (metric, workload) the
// candidate won and how many it lost; a tie counts for neither.
func pairs(better string, base, cand runs, workload, metric string) (won, lost int) {
	bySeed := map[int64]float64{}
	for _, run := range base[workload] {
		if v, ok := run.metrics[metric]; ok {
			bySeed[run.seed] = v.Value
		}
	}
	for _, run := range cand[workload] {
		b, paired := bySeed[run.seed]
		c, ok := run.metrics[metric]
		if !paired || !ok || c.Value == b {
			continue
		}
		if (c.Value > b) == (better == "higher") {
			won++
		} else {
			lost++
		}
	}
	return won, lost
}

func load(path string) (runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	values := runs{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !l.Result.Correct {
			return nil, fmt.Errorf("%s:%d: run of %s was not correct", path, n, l.Workload)
		}
		values[l.Workload] = append(values[l.Workload], run{l.Seed, l.Result.Metrics})
	}
	return values, sc.Err()
}

// allBeat reports whether every run of x is better than every run of y.
func allBeat(better string, x, y []float64) bool {
	xs, ys := append([]float64(nil), x...), append([]float64(nil), y...)
	sort.Float64s(xs)
	sort.Float64s(ys)
	if better == "higher" {
		return xs[0] > ys[len(ys)-1]
	}
	return xs[len(xs)-1] < ys[0]
}

// verdict judges one (metric, workload) pair from both sides' runs and the
// same-seed pairs the candidate won and lost. worse is the candidate's
// median change in the worsening direction, as a share of the base's median.
func verdict(m metric, base, cand []float64, won, lost int) (string, float64) {
	sign := 1.0 // lower is better: growing is worsening
	if m.Better == "higher" {
		sign = -1
	}
	baseMed, candMed := stats.Median(base), stats.Median(cand)
	worse := sign * (candMed - baseMed) / baseMed
	if stats.Spread(base) > m.Bound || stats.Spread(cand) > m.Bound {
		switch {
		case allBeat(m.Better, cand, base):
			return "better", worse
		case allBeat(m.Better, base, cand) && worse > m.Bound:
			return "worse", worse
		}
		return "unresolved", worse
	}
	q1, _, q3 := stats.Quartiles(base)
	switch {
	case worse > m.Bound:
		return "worse", worse
	case -worse*baseMed > q3-q1 && won > 0 && won >= 9*lost:
		return "better", worse
	}
	return "within bound", worse
}

func main() {
	benchmark := flag.String("benchmark", "../BENCHMARK.json", "the benchmark definition holding the bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-benchmark BENCHMARK.json] base.jsonl candidate.jsonl")
		os.Exit(2)
	}
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	data, err := os.ReadFile(*benchmark)
	if err != nil {
		fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		fatal(fmt.Errorf("%s: %w", *benchmark, err))
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cand, err := load(flag.Arg(1))
	if err != nil {
		fatal(err)
	}

	bad := 0
	fmt.Printf("%-14s %-13s %-5s %14s %14s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "base median", "cand median", "worse by", "spread b", "spread c", "bound", "verdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			b, c := base.column(w.Name, m.Name), cand.column(w.Name, m.Name)
			if len(b) < 2 || len(c) < 2 {
				fatal(fmt.Errorf("%s %s: need at least two runs on each side, have %d and %d", w.Name, m.Name, len(b), len(c)))
			}
			won, lost := pairs(m.Better, base, cand, w.Name, m.Name)
			v, worse := verdict(m, b, c, won, lost)
			if v == "worse" || v == "unresolved" {
				bad++
			}
			fmt.Printf("%-14s %-13s %-5s %14.4f %14.4f %+8.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, m.Unit, stats.Median(b), stats.Median(c), worse*100,
				stats.Spread(b)*100, stats.Spread(c)*100, m.Bound*100, v)
		}
	}
	if bad > 0 {
		fmt.Printf("%d of %d rows worse or unresolved\n", bad, len(sp.Workloads)*len(sp.EndToEnd))
		os.Exit(1)
	}
}
