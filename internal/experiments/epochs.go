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
func EpochEnvs(w *world.World, days, workers int) []*Env {
	if days < 1 {
		days = 1
	}
	envs := make([]*Env, days)
	base := NewEnvFromWorld(w)
	base.MatrixWorkers = workers
	envs[0] = base
	if days == 1 {
		return envs
	}
	for d := 1; d < days; d++ {
		e := NewEnvFromWorld(w)
		e.MatrixWorkers = workers
		e.DiscoveryStart = simtime.Time(d) * simtime.Day
		e.CrawlDayIndex = d
		e.shareInvariants(base)
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
