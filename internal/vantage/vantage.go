// Package vantage simulates a distributed fleet of lightweight measurement
// agents — the DIMES/RIPE-Atlas shape: thousands of cheap probes seeded
// into eyeball networks, where the users are. The fleet runs scheduled
// mesh campaigns (traceroutes and RTT pings between agent pairs) through
// the tracer/latency/faults/resilience stack and aggregates them into the
// user↔user MeshMatrix (core.MeshDocument): per AS pair, the observed AS
// path, an RTT distribution summary, and how much probing survived the
// fault substrate.
//
// Everything is deterministic. Agent identity is a seed: agent i draws its
// placement from its own hash-derived randx fork, so the same agent lands
// in the same prefix no matter how large the fleet or how many CPUs run
// it. The O(n²) mesh is sharded by agent ID into a fixed number of shards
// (never by CPU count); shards run on one goroutine per CPU and their
// tallies merge in shard order, so the MeshMatrix — and its canonical
// encoding — is byte-identical across CPU counts, like the traffic matrix
// build it mirrors.
package vantage

import (
	"itmap/internal/randx"
	"itmap/internal/topology"
	"itmap/internal/users"
)

// Domain-separation tags for the fleet's hash streams.
const (
	tagAgent uint64 = 0x3e5a01 + iota
	tagTarget
	tagSeq
)

// Agent is one measurement vantage: a lightweight probe process inside a
// user prefix of an eyeball AS.
type Agent struct {
	// ID is the agent's stable identity (0-based, dense). Everything the
	// agent does — placement, target choices, probe jitter — derives from
	// hash(fleet seed, ID), so an agent's behavior is a pure function of
	// its identity.
	ID int
	// AS is the eyeball network hosting the agent.
	AS topology.ASN
	// Prefix is the user prefix the agent probes from.
	Prefix topology.PrefixID
}

// Fleet is a deterministically placed set of agents.
type Fleet struct {
	Agents []Agent
	// Seed is the fleet's identity seed (placement and campaign hashes).
	Seed uint64
}

// NewFleet seeds n agents into the topology's eyeball ASes. Placement is
// weighted by the users model — populous ISPs host proportionally more
// agents, the way volunteer probe fleets skew — and the prefix within the
// chosen AS is weighted by per-prefix users. Each agent draws from its own
// randx fork keyed by (seed, ID): growing the fleet appends agents without
// moving existing ones.
func NewFleet(top *topology.Topology, um *users.Model, n int, seed int64) *Fleet {
	f := &Fleet{Seed: uint64(seed)}
	eyeballs := top.ASesOfType(topology.Eyeball)
	if len(eyeballs) == 0 || n <= 0 {
		return f
	}
	weights := make([]float64, len(eyeballs))
	for i, asn := range eyeballs {
		weights[i] = um.ASUsers(asn)
	}
	f.Agents = make([]Agent, 0, n)
	for id := 0; id < n; id++ {
		//itmlint:allow seedflow identity-keyed seeding: each agent's source derives from hash(seed, id), so placements are independent of fleet size and iteration order (Fork would couple agent id to stream position)
		rng := randx.New(int64(randx.Hash64(f.Seed, tagAgent, uint64(id))))
		asn := eyeballs[rng.WeightedChoice(weights)]
		prefixes := top.ASes[asn].Prefixes
		pw := make([]float64, len(prefixes))
		for i, p := range prefixes {
			pw[i] = um.UsersIn(p)
		}
		f.Agents = append(f.Agents, Agent{
			ID:     id,
			AS:     asn,
			Prefix: prefixes[rng.WeightedChoice(pw)],
		})
	}
	return f
}
