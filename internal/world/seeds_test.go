package world

import (
	"itmap/internal/topology"
	"testing"
)

// TestCrossSeedRobustness asserts that the structural properties the
// experiments rely on hold across seeds, not just the tuned ones.
func TestCrossSeedRobustness(t *testing.T) {
	for seed := int64(101); seed <= 105; seed++ {
		w := Build(Tiny(seed))
		if err := w.Top.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: invariants: %v", seed, err)
		}
		mx := w.Traffic.BuildMatrix()
		if mx.TotalBytes <= 0 {
			t.Fatalf("seed %d: no traffic", seed)
		}
		// Concentration: giants dominate but the tail exists.
		if s := mx.CumulativeTopShare(5); s < 0.5 || s > 0.99 {
			t.Errorf("seed %d: top-5 share %.2f", seed, s)
		}
		// Flattening: most top-owner query volume within one hop.
		topOwner := mx.TopOwners()[0].ASN
		var short, total float64
		for _, f := range mx.Flows {
			svc := w.Cat.Services[f.Svc]
			if svc.Owner != topOwner || f.Hops < 0 {
				continue
			}
			q := f.Bytes / svc.BytesPerQuery
			total += q
			if f.Hops <= 1 {
				short += q
			}
		}
		if total == 0 || short/total < 0.5 {
			t.Errorf("seed %d: weighted short-path frac %.2f", seed, short/total)
		}
		// Root operators exist and peer widely.
		rootOps := 0
		for _, asn := range w.Top.ASNs() {
			a := w.Top.ASes[asn]
			if a.RootOperator {
				rootOps++
				peers := 0
				for _, n := range a.Neighbors {
					if n.Rel == topology.RelPeer {
						peers++
					}
				}
				if peers < 3 {
					t.Errorf("seed %d: root op %d has %d peers", seed, asn, peers)
				}
			}
		}
		if rootOps == 0 {
			t.Errorf("seed %d: no root operators", seed)
		}
		// Off-nets exist for the reference CDN.
		if len(w.Cat.Deployments[w.Cat.ReferenceCDN].OffNetByHost) == 0 {
			t.Errorf("seed %d: reference CDN has no off-nets", seed)
		}
		// Anycast deployments announce from hub sites only.
		for owner, d := range w.Cat.Deployments {
			if d.HasAnycast && len(d.AnycastSites) == 0 {
				t.Errorf("seed %d: owner %d anycast without sites", seed, owner)
			}
		}
	}
}
