package experiments

import (
	"itmap/internal/core"
	"itmap/internal/faults"
	"itmap/internal/simtime"
	"itmap/internal/vantage"
	"itmap/internal/world"
)

// MeshSpec configures the vantage-fleet campaigns an epoch build runs
// alongside the per-day map sweeps; Agents == 0 means no mesh.
type MeshSpec struct {
	// Agents and Rounds shape each day's campaign (vantage.Config defaults
	// apply when zero).
	Agents int
	Rounds int
	// Profile is the fault preset the fleet probes under.
	Profile faults.Profile
}

// RunMeshCampaign runs one day's mesh campaign over w: the fleet is placed
// from the world's seed, round 0 starts at the given time. The fourth
// argument is ignored: kept for benchmark/_tracer; ROADMAP item 7b deletes
// it.
func RunMeshCampaign(w *world.World, spec MeshSpec, start simtime.Time, _ int) (*core.MeshDocument, *vantage.Stats) {
	c := vantage.New(w.Top, w.Paths, w.Users, vantage.Config{
		Agents:  spec.Agents,
		Rounds:  spec.Rounds,
		Start:   start,
		Seed:    w.Cfg.Seed,
		Profile: spec.Profile,
	})
	return c.Run()
}
