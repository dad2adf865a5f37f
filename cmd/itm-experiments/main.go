// Command itm-experiments regenerates every table and figure of the paper:
// Table 1, Figures 1a/1b/2, and the in-text quantitative claims E1-E26
// (experiments.Catalogue is the index). For each artifact it prints the
// paper's reported value next to the value measured on the simulated
// Internet and whether the qualitative shape holds. -only runs just the
// listed experiments (an unknown ID exits 2); -metrics-out and -trace-out
// then cover those experiments only.
//
// Usage:
//
//	itm-experiments [-scale tiny|small|default] [-seed N] [-markdown] [-only ID,ID]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"itmap"
	"itmap/internal/experiments"
	"itmap/internal/obs"
	"itmap/internal/world"
)

func main() {
	scale := flag.String("scale", "default", "world scale: tiny, small, or default")
	seed := flag.Int64("seed", 42, "world seed")
	markdown := flag.Bool("markdown", false, "emit Markdown (EXPERIMENTS.md body)")
	only := flag.String("only", "", "run only these comma-separated experiment IDs (e.g. F2,E5)")
	csvDir := flag.String("csv", "", "also write each figure's series as CSV files into this directory")
	metricsOut := flag.String("metrics-out", "", "write the stable metrics dump to this file on exit")
	traceOut := flag.String("trace-out", "", "write the span-trace export to this file on exit")
	flag.Parse()

	cfg, err := world.ForScale(*scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "itm-experiments:", err)
		os.Exit(2)
	}
	// Selected before the world is built: a mistyped ID costs nothing, and
	// only what was asked for runs.
	rows := experiments.Catalogue
	if *only != "" {
		ids := strings.Split(*only, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
		if rows, err = experiments.Select(ids); err != nil {
			fmt.Fprintln(os.Stderr, "itm-experiments:", err)
			os.Exit(2)
		}
	}
	session := itm.NewSession(itm.NewInternet(cfg))
	results := make([]*itm.Result, len(rows))
	for i, x := range rows {
		results[i] = x.Run(session)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "itm-experiments:", err)
			os.Exit(1)
		}
		files, err := itm.WriteSeriesCSV(results, *csvDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "itm-experiments:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d CSV files to %s\n", len(files), *csvDir)
	}
	if *metricsOut != "" {
		if err := obs.WriteMetricsFile(*metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "itm-experiments:", err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		if err := obs.WriteTraceFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "itm-experiments:", err)
			os.Exit(1)
		}
	}
	if *markdown {
		fmt.Print(itm.MarkdownResults(results))
	} else {
		fmt.Print(itm.FormatResults(results))
	}
	for _, r := range results {
		if !r.Pass() {
			os.Exit(1)
		}
	}
}
