// Command itm-mesh runs one vantage-fleet mesh campaign and prints the
// user↔user connectivity it measured: agents seeded into eyeball ASes
// traceroute and ping each other through the fault substrate, and the
// resulting MeshMatrix is summarised (coverage, loss, worst pairs) or
// written as ITMB v2 mesh sections with -o.
//
// The output is deterministic: the same scale, seed, agents, rounds, and
// profile produce byte-identical mesh sections for every -workers setting.
//
// Usage:
//
//	itm-mesh [-scale tiny|small|default] [-seed N] [-agents N] [-rounds N]
//	         [-workers N] [-profile none|calm|lossy|hostile] [-o mesh.itmb]
package main

import (
	"flag"
	"fmt"
	"os"

	"itmap/internal/experiments"
	"itmap/internal/faults"
	"itmap/internal/mapstore"
	"itmap/internal/vantage"
	"itmap/internal/world"
)

func main() {
	scale := flag.String("scale", "tiny", "world scale: tiny, small, or default")
	seed := flag.Int64("seed", 42, "world seed")
	agents := flag.Int("agents", 48, "vantage fleet size")
	rounds := flag.Int("rounds", 2, "campaign rounds")
	workers := flag.Int("workers", 0, "campaign workers (0 = one per CPU)")
	profile := flag.String("profile", "none", "fault preset: none, calm, lossy, hostile")
	out := flag.String("o", "", "write ITMB v2 mesh sections to this file")
	top := flag.Int("top", 5, "worst pairs to print")
	flag.Parse()

	if err := run(*scale, *seed, *agents, *rounds, *workers, *profile, *out, *top); err != nil {
		fmt.Fprintln(os.Stderr, "itm-mesh:", err)
		os.Exit(1)
	}
}

func run(scale string, seed int64, agents, rounds, workers int, profile, out string, topK int) error {
	cfg, err := world.ForScale(scale, seed)
	if err != nil {
		return err
	}
	prof, ok := faults.ByName(profile)
	if !ok {
		return fmt.Errorf("unknown fault profile %q", profile)
	}
	vantage.RegisterMetrics()
	w := world.Build(cfg)
	doc, stats := experiments.RunMeshCampaign(w, experiments.MeshSpec{
		Agents: agents, Rounds: rounds, Profile: prof,
	}, 0, workers)

	probes, lost, complete := 0, 0, 0
	for i := range doc.Pairs {
		p := &doc.Pairs[i]
		probes += p.Probes
		lost += p.Lost
		if p.Complete {
			complete++
		}
	}
	fmt.Printf("mesh campaign: %d agents × %d rounds, profile %s\n", doc.Agents, doc.Rounds, doc.Profile)
	fmt.Printf("  scheduled %d, completed %d, skipped %d (budget) + %d (same AS)\n",
		stats.Scheduled, stats.Completed, stats.SkippedBudget, stats.SkippedSameAS)
	fmt.Printf("  %d pairs measured: %d complete paths, %d/%d pings lost (%.1f%%)\n",
		len(doc.Pairs), complete, lost, probes, 100*lossRate(lost, probes))
	fmt.Printf("  %d traceroutes (%d retries), %d incomplete\n",
		stats.Traceroutes, stats.TraceRetries, stats.Incomplete)

	if topK > 0 && len(doc.Pairs) > 0 {
		fmt.Printf("  worst pairs by mean RTT:\n")
		for _, r := range mapstore.RankMeshPairs(doc, topK) {
			fmt.Printf("    AS%-6d ↔ AS%-6d  mean %7.2fms  min %7.2fms  loss %.2f  complete=%v\n",
				r.A, r.B, r.MeanRTTms, r.MinRTTms, r.Loss, r.Complete)
		}
	}

	if out != "" {
		enc, err := mapstore.EncodeMeshDocument(doc)
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, enc, 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %d bytes of ITMB v2 mesh sections to %s\n", len(enc), out)
	}
	return nil
}

func lossRate(lost, probes int) float64 {
	if probes == 0 {
		return 0
	}
	return float64(lost) / float64(probes)
}
