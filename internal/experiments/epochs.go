package experiments

import (
	"strconv"

	"itmap/internal/core"
	"itmap/internal/mapstore"
	obspkg "itmap/internal/obs"
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
// move day by day as they would with a sweep a day. The third argument is
// ignored: kept for benchmark/_tracer; ROADMAP item 7b deletes it.
func EpochEnvs(w *world.World, days, _ int) []*Env {
	days = max(days, 1)
	c := newCampaign(w, days)
	envs := make([]*Env, days)
	for d := range envs {
		envs[d] = newEnv(w, c, d)
	}
	return envs
}

// BuildEpochStore runs a multi-day measurement campaign over w and ingests
// each day's assembled map into st. The store keeps only what was measured:
// the campaign and the world are garbage once the loop ends, and nothing on
// this path builds the ground-truth matrix or computes the collector view.
// The trace "default" is activated last, so spans the caller records
// afterwards never land in an epoch's trace. The store is the caller's so
// it can be configured first — itm-serve attaches the write-ahead log
// before the first append, making the initial build durable too. With
// mesh.Agents > 0 day d's vantage fleet sweep starts at d·24h and its mesh
// matrix is ingested with that day's map, so /v1/path and /v1/latency
// resolve on every epoch. The resulting store (epoch and mesh bytes, ETags,
// diffs, rankings) is identical at any CPU count.
func BuildEpochStore(st *mapstore.Store, w *world.World, days int, mesh MeshSpec) error {
	return ingestDays(st, EpochEnvs(w, days, 0), mesh)
}

// ingestDays is BuildEpochStore over prepared days.
func ingestDays(st *mapstore.Store, envs []*Env, mesh MeshSpec) error {
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
			md, _ = RunMeshCampaign(e.W, mesh, e.start, 0)
		}
		if _, err := st.AppendMapMesh(e.start, e.Map(), nil, md); err != nil {
			return err
		}
	}
	obspkg.ActivateTrace("default")
	return nil
}
