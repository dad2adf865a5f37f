// Command itm-loadgen replays a seeded, deterministic query mix against an
// itm-serve instance and reports two ledgers: deterministic counters
// (requests by route, statuses, cache outcomes, body bytes — byte-identical
// across same-seed runs and worker counts) and a wall-clock performance
// summary (QPS, p50/p99 latency). Every planned request carries a seeded
// W3C traceparent header, so the server's "http" trace, access events, and
// histogram exemplars point back at exact plan entries (DESIGN.md §15).
//
// Two targets:
//
//	itm-loadgen -addr http://localhost:8411        replay over HTTP
//	itm-loadgen -self                              build a world in-process
//	                                               and replay against the
//	                                               same handler stack
//
// With -overload the paced replay is replaced by an unpaced burst against
// an admission-controlled server: 503s are counted instead of fatal, and
// the run fails unless admitted + shed == issued and every shed response
// carries Retry-After.
//
// Usage:
//
//	itm-loadgen [-addr URL | -self] [-seed N] [-n N] [-workers N]
//	            [-alpha F] [-as-pool N] [-reval F] [-counters out.json]
//	            [-scale tiny|small|default] [-world-seed N] [-epochs N]
//	            [-overload] [-mix map|mesh] [-mesh-agents N]
//
// With -mix mesh the replay targets the user↔user routes (/v1/path,
// /v1/latency, /v1/latency/top), drawing AS pairs zipf-weighted from the
// store's worst-latency ranking; the target store must have been built
// with mesh sections. In -self mode -mesh-agents sizes the in-process
// vantage fleet (it defaults on when the mesh mix is selected; 0 means no
// mesh). -self builds its store through experiments.BuildEpochStore, the
// path itm-serve boots through, at the -scale world.ForScale resolves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"

	"itmap/internal/experiments"
	"itmap/internal/loadgen"
	"itmap/internal/mapstore"
	"itmap/internal/world"
)

func main() {
	addr := flag.String("addr", "", "base URL of a running itm-serve (e.g. http://localhost:8411)")
	self := flag.Bool("self", false, "build a simulated world in-process and replay against its handler")
	seed := flag.Int64("seed", 1, "replay plan seed")
	n := flag.Int("n", 2000, "total requests to replay")
	workers := flag.Int("workers", 4, "closed-loop client concurrency")
	alpha := flag.Float64("alpha", 1.1, "zipf exponent for AS popularity")
	asPool := flag.Int("as-pool", 64, "top-ranked AS pool the zipf draws from")
	reval := flag.Float64("reval", 0.8, "probability a revisit sends If-None-Match")
	countersOut := flag.String("counters", "", "write the deterministic counters JSON here")
	scale := flag.String("scale", "tiny", "-self world scale: tiny, small, or default")
	worldSeed := flag.Int64("world-seed", 42, "-self world seed")
	epochs := flag.Int("epochs", 3, "-self simulated days (one epoch per day)")
	overload := flag.Bool("overload", false, "unpaced burst mode: count 503 sheds and assert the overload contract")
	mix := flag.String("mix", "map", "request mix: map (rankings, AS views, map fetches) or mesh (user↔user path/latency)")
	meshAgents := flag.Int("mesh-agents", 0, "-self vantage fleet size (0 = 48 when -mix mesh, else no mesh)")
	flag.Parse()

	if *meshAgents == 0 && *mix == "mesh" {
		*meshAgents = 48
	}
	if err := run(*addr, *self, *overload, *scale, *worldSeed, *epochs, *meshAgents, loadgen.Config{
		Base:       *addr,
		Seed:       *seed,
		Requests:   *n,
		Workers:    *workers,
		Alpha:      *alpha,
		ASPool:     *asPool,
		Revalidate: *reval,
		Mix:        *mix,
	}, *countersOut); err != nil {
		fmt.Fprintln(os.Stderr, "itm-loadgen:", err)
		os.Exit(1)
	}
}

func run(addr string, self, overload bool, scale string, worldSeed int64, epochs, meshAgents int, cfg loadgen.Config, countersOut string) error {
	var doer loadgen.Doer
	switch {
	case self && addr != "":
		return fmt.Errorf("-self and -addr are mutually exclusive")
	case self:
		wc, err := world.ForScale(scale, worldSeed)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "itm-loadgen: building %s world (seed %d, %d epochs, mesh agents %d)\n", scale, worldSeed, epochs, meshAgents)
		st := mapstore.NewStore()
		if err := experiments.BuildEpochStore(st, world.Build(wc), epochs, 0,
			experiments.MeshSpec{Agents: meshAgents, Rounds: 2}); err != nil {
			return err
		}
		doer = loadgen.HandlerDoer{Handler: mapstore.NewHandler(st)}
	case addr != "":
		doer = &http.Client{}
	default:
		return fmt.Errorf("need -addr or -self")
	}

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

	res, err := loadgen.Run(cfg, doer)
	if err != nil {
		return err
	}
	c := res.Counters
	fmt.Printf("itm-loadgen: n=%d workers=%d seed=%d traced=%d hit_ratio=%.3f not_modified=%d body_bytes=%d\n",
		c.Total(), cfg.Workers, cfg.Seed, c.Traced, c.HitRatio(), c.NotModified, c.BodyBytes)
	fmt.Printf("itm-loadgen: wall qps=%.0f p50_ms=%.3f p99_ms=%.3f (machine-dependent, not part of the deterministic ledger)\n",
		res.Perf.QPS, res.Perf.P50ms, res.Perf.P99ms)
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
