package experiments

import (
	"strconv"

	"itmap/internal/core"
	"itmap/internal/mapstore"
	obspkg "itmap/internal/obs"
	"itmap/internal/simtime"
	"itmap/internal/traffic"
	"itmap/internal/vantage"
	"itmap/internal/world"
)

// EpochEnvs prepares one measurement environment per simulated day. Day d's
// discovery sweep starts at d·24h and its root-log crawl covers day d, so
// consecutive maps see the world's diurnal drift. Campaigns whose outputs
// are time-invariant (TLS scan, hit rates, collector view, observed
// topology) are computed once on day 0 and shared, mirroring how a real
// operator would reuse an Internet-wide scan across daily map refreshes.
// So is what the maps take from the hit rates: the campaign is folded once
// (core.FoldHitRates) and every day's map holds that one fold's section, so
// a day's core.BuildMap does only the day's own work — its found list,
// which the sweep returns sorted, its crawl and its mappings.
//
// The days' discovery sweeps are one sweep (cacheprobe.DiscoverDays), run
// when the first day's Discovery is asked for: each ⟨prefix, domain⟩ probe
// is prepared once for every day. Day d's result is the one a sweep of day
// d alone gives, and its counters reach the process registry when
// envs[d].Discovery() first returns, so /metrics and the telemetry history
// move day by day as they would with a sweep a day.
func EpochEnvs(w *world.World, days, workers int) []*Env {
	if days < 1 {
		days = 1
	}
	sweep := &discoverySweep{w: w, starts: make([]simtime.Time, days)}
	envs := make([]*Env, days)
	for d := range envs {
		e := &Env{W: w, MatrixWorkers: workers, DiscoveryStart: simtime.Time(d) * simtime.Day, CrawlDayIndex: d,
			days: sweep, day: d}
		sweep.starts[d] = e.DiscoveryStart
		if d > 0 {
			e.shareInvariants(envs[0])
		}
		envs[d] = e
	}
	return envs
}

// BuildEpochStore runs a multi-day measurement campaign over w and ingests
// each day's assembled map into st, with one fresh environment, holding
// only w and workers, as every epoch's source of the ground-truth matrix,
// so link-load queries resolve and the campaign's own environments are
// garbage once the loop ends. Nothing on this path builds the matrix:
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
	if mesh.Agents > 0 {
		// Only a mesh build registers the fleet's families: a map-only
		// boot's stable exposition does not list them.
		vantage.RegisterMetrics()
	}
	envs := EpochEnvs(w, days, workers)
	links := NewEnvFromWorld(w)
	links.MatrixWorkers = workers
	// One trace per campaign day; Activate happens at serial points, so every
	// span a day's sweeps record lands in that day's tree.
	for d, e := range envs {
		obspkg.ActivateTrace("epoch-" + strconv.Itoa(d))
		at := simtime.Time(d) * simtime.Day
		var md *core.MeshDocument
		if mesh.Agents > 0 {
			md, _ = RunMeshCampaign(w, mesh, at, workers)
		}
		if _, err := st.AppendMapMesh(at, e.Map(), links, md); err != nil {
			return err
		}
	}
	traffic.DeclareMetrics()
	obspkg.ActivateTrace("link-loads")
	return nil
}
