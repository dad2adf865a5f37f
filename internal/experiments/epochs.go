package experiments

import (
	"strconv"

	"itmap/internal/core"
	"itmap/internal/mapstore"
	obspkg "itmap/internal/obs"
	"itmap/internal/traffic"
	"itmap/internal/vantage"
	"itmap/internal/world"
)

// EpochEnvs prepares one measurement environment per simulated day, all of
// them days of one campaign, and runs nothing. Day d's discovery sweep
// starts at d·24h and its root-log crawl covers day d, so consecutive maps
// see the world's diurnal drift. Everything else is the campaign's and
// every day shares it — the matrix, the TLS scan, the hit-rate campaign and
// its fold (core.FoldHitRates), the collector view — as a real operator
// reuses an Internet-wide scan across daily map refreshes, so a day's
// core.BuildMap does only the day's own work: its found list, which the
// sweep returns sorted, its crawl and its mappings.
//
// The days' discovery sweeps are one sweep (cacheprobe.DiscoverDays), run
// when the first day's Discovery is asked for: each ⟨prefix, domain⟩ probe
// is prepared once for every day. Day d's result is the one a sweep of day
// d alone gives, and its counters reach the process registry when
// envs[d].Discovery() first returns, so /metrics and the telemetry history
// move day by day as they would with a sweep a day. workers bounds the
// goroutines building the matrix (0 = one per CPU); the matrix is the same
// for every count.
func EpochEnvs(w *world.World, days, workers int) []*Env {
	days = max(days, 1)
	c := newCampaign(w, days, workers)
	envs := make([]*Env, days)
	for d := range envs {
		envs[d] = newEnv(w, c, d)
	}
	return envs
}

// BuildEpochStore runs a multi-day measurement campaign over w and ingests
// each day's assembled map into st. Every epoch's source of the
// ground-truth matrix is the campaign's, which holds only w and workers
// until it builds the matrix, so link-load queries resolve and the rest of
// the campaign is garbage once the loop ends; the boot never computes the
// collector view. Nothing on this path builds the matrix:
// /v1/link builds it on its first request, once (Env.Matrix), and every
// epoch reads that one matrix. Its families are declared here, header
// only, and the trace "link-loads" is activated last, so the build records
// its spans there and never in an epoch's trace; anything the caller runs
// afterwards records into link-loads too. The store is the caller's so it
// can be configured first — itm-serve attaches the write-ahead log before
// the first append, making the initial build durable too. With
// mesh.Agents > 0 day d's vantage fleet sweep starts at d·24h and its mesh
// matrix is ingested with that day's map, so /v1/path and /v1/latency
// resolve on every epoch. workers bounds the parallelism of the matrix
// build and the fleet; the resulting store (epoch and mesh bytes, ETags,
// diffs, rankings, link loads) is identical for every setting.
func BuildEpochStore(st *mapstore.Store, w *world.World, days, workers int, mesh MeshSpec) error {
	return ingestDays(st, EpochEnvs(w, days, workers), workers, mesh)
}

// ingestDays is BuildEpochStore over prepared days.
func ingestDays(st *mapstore.Store, envs []*Env, workers int, mesh MeshSpec) error {
	if mesh.Agents > 0 {
		// Only a mesh build registers the fleet's families: a map-only
		// boot's stable exposition does not list them.
		vantage.RegisterMetrics()
	}
	// The campaigns every day's map shares run first, outside any epoch's
	// trace and before day 0's mesh campaign, whose telemetry sample
	// (history.Observe) therefore counts their probes. Left to day 0's Map
	// they would run after it, and the sample and /v1/obs/history would
	// move.
	envs[0].Scan()
	envs[0].c.hitFold()
	// One trace per campaign day; Activate happens at serial points, so every
	// span a day's sweeps record lands in that day's tree.
	for d, e := range envs {
		obspkg.ActivateTrace("epoch-" + strconv.Itoa(d))
		var md *core.MeshDocument
		if mesh.Agents > 0 {
			md, _ = RunMeshCampaign(e.W, mesh, e.start, workers)
		}
		if _, err := st.AppendMapMesh(e.start, e.Map(), e.c.matrix, md); err != nil {
			return err
		}
	}
	traffic.DeclareMetrics()
	obspkg.ActivateTrace("link-loads")
	return nil
}
