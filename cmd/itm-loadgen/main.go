// Command itm-loadgen replays a seeded, deterministic query mix against a
// running itm-serve and reports its deterministic counters (requests by
// route, statuses, cache outcomes, body bytes — byte-identical across
// same-seed runs and worker counts). Wall-clock performance is measured by
// benchmark/. Every planned request carries a seeded W3C traceparent
// header, so the server's "http" trace, access events, and histogram
// exemplars point back at exact plan entries (DESIGN.md §15).
//
// With -overload the paced replay is replaced by an unpaced burst against
// an admission-controlled server: 503s are counted instead of fatal, and
// the run fails unless admitted + shed == issued and every shed response
// carries Retry-After.
//
// Usage:
//
//	itm-loadgen -addr URL [-seed N] [-n N] [-workers N]
//	            [-counters out.json] [-overload]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"

	"itmap/internal/loadgen"
)

func main() {
	addr := flag.String("addr", "", "base URL of a running itm-serve (e.g. http://localhost:8411)")
	seed := flag.Int64("seed", 1, "replay plan seed")
	n := flag.Int("n", 2000, "total requests to replay")
	workers := flag.Int("workers", 4, "closed-loop client concurrency")
	countersOut := flag.String("counters", "", "write the deterministic counters JSON here")
	overload := flag.Bool("overload", false, "unpaced burst mode: count 503 sheds and assert the overload contract")
	flag.Parse()

	if err := run(*overload, loadgen.Config{
		Base:     *addr,
		Seed:     *seed,
		Requests: *n,
		Workers:  *workers,
	}, *countersOut); err != nil {
		fmt.Fprintln(os.Stderr, "itm-loadgen:", err)
		os.Exit(1)
	}
}

func run(overload bool, cfg loadgen.Config, countersOut string) error {
	if cfg.Base == "" {
		return fmt.Errorf("need -addr")
	}
	doer := &http.Client{}

	if overload {
		c, err := loadgen.RunOverload(loadgen.OverloadConfig{
			Base:     cfg.Base,
			Seed:     cfg.Seed,
			Requests: cfg.Requests,
			Workers:  cfg.Workers,
		}, doer)
		if err != nil {
			return err
		}
		fmt.Printf("itm-loadgen: overload n=%d workers=%d seed=%d admitted=%d shed=%d (admitted+shed==issued, all 503s carried Retry-After)\n",
			c.Issued, cfg.Workers, cfg.Seed, c.Admitted, c.Shed)
		if countersOut != "" {
			blob, err := json.MarshalIndent(c, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(countersOut, append(blob, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "itm-loadgen: wrote overload ledger to %s\n", countersOut)
		}
		return nil
	}

	c, err := loadgen.Run(cfg, doer)
	if err != nil {
		return err
	}
	fmt.Printf("itm-loadgen: n=%d workers=%d seed=%d traced=%d hit_ratio=%.3f not_modified=%d body_bytes=%d\n",
		c.Total(), cfg.Workers, cfg.Seed, c.Traced, c.HitRatio(), c.NotModified, c.BodyBytes)
	if countersOut != "" {
		blob, err := c.MarshalSorted()
		if err != nil {
			return err
		}
		if err := os.WriteFile(countersOut, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "itm-loadgen: wrote deterministic counters to %s\n", countersOut)
	}
	return nil
}
