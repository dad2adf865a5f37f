package topology

import (
	"fmt"
	"slices"
)

// CheckInvariants validates structural properties every generated topology
// must satisfy. It returns the first violation found, or nil.
//
//itmlint:allow deadexport test support: topology and world tests validate every generated topology with it
func (t *Topology) CheckInvariants() error {
	// Symmetric, relationship-consistent adjacency.
	for asn, a := range t.ASes {
		seen := map[ASN]bool{}
		for _, n := range a.Neighbors {
			if n.ASN == asn {
				return fmt.Errorf("AS %d has a self link", asn)
			}
			if seen[n.ASN] {
				return fmt.Errorf("AS %d has duplicate neighbor %d", asn, n.ASN)
			}
			seen[n.ASN] = true
			b, ok := t.ASes[n.ASN]
			if !ok {
				return fmt.Errorf("AS %d has unknown neighbor %d", asn, n.ASN)
			}
			rel, ok := b.HasNeighbor(asn)
			if !ok {
				return fmt.Errorf("link %d->%d is not symmetric", asn, n.ASN)
			}
			if rel != n.Rel.Invert() {
				return fmt.Errorf("link %d-%d relationship mismatch: %v vs %v", asn, n.ASN, n.Rel, rel)
			}
		}
	}
	// Tier-1s have no providers; hypergiants/clouds have no providers but
	// peer with every tier-1 (global reachability); all other ASes have
	// at least one provider.
	var tier1s []ASN
	for asn, a := range t.ASes {
		if a.Type == Tier1 {
			tier1s = append(tier1s, asn)
		}
	}
	// Sorted so the first violation reported is stable across runs.
	slices.Sort(tier1s)
	for asn, a := range t.ASes {
		provs := a.Providers()
		switch a.Type {
		case Tier1:
			if len(provs) != 0 {
				return fmt.Errorf("tier-1 AS %d has providers %v", asn, provs)
			}
		case Hypergiant, Cloud:
			if len(provs) != 0 {
				return fmt.Errorf("giant AS %d has providers %v", asn, provs)
			}
			for _, t1 := range tier1s {
				if rel, ok := a.HasNeighbor(t1); !ok || rel != RelPeer {
					return fmt.Errorf("giant AS %d does not peer with tier-1 %d", asn, t1)
				}
			}
		default:
			if len(provs) == 0 {
				return fmt.Errorf("AS %d (%v) has no provider", asn, a.Type)
			}
		}
	}
	// No customer-provider cycles (provider DAG must be acyclic).
	if err := t.checkProviderDAG(); err != nil {
		return err
	}
	// Prefix ownership is consistent and unique.
	seenPfx := map[PrefixID]ASN{}
	for asn, a := range t.ASes {
		for _, p := range a.Prefixes {
			if prev, dup := seenPfx[p]; dup {
				return fmt.Errorf("prefix %v owned by both %d and %d", p, prev, asn)
			}
			seenPfx[p] = asn
			if owner, ok := t.PrefixOwner[p]; !ok || owner != asn {
				return fmt.Errorf("prefix %v owner map inconsistent", p)
			}
			if _, ok := t.PrefixCity[p]; !ok {
				return fmt.Errorf("prefix %v has no city", p)
			}
		}
	}
	if len(seenPfx) != len(t.PrefixOwner) {
		return fmt.Errorf("PrefixOwner has %d entries, ASes own %d", len(t.PrefixOwner), len(seenPfx))
	}
	// Every IXP member exists and is present at the IXP facility.
	for _, ix := range t.IXPs {
		if int(ix.Facility) >= len(t.Facilities) {
			return fmt.Errorf("IXP %s has unknown facility %d", ix.Name, ix.Facility)
		}
		for _, m := range ix.Members {
			a, ok := t.ASes[m]
			if !ok {
				return fmt.Errorf("IXP %s member %d unknown", ix.Name, m)
			}
			found := false
			for _, f := range a.Facilities {
				if f == ix.Facility {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("IXP %s member %d not present at its facility", ix.Name, m)
			}
		}
	}
	return nil
}

// checkProviderDAG verifies the customer→provider graph is acyclic.
func (t *Topology) checkProviderDAG() error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[ASN]uint8, len(t.ASes))
	var visit func(asn ASN) error
	visit = func(asn ASN) error {
		color[asn] = grey
		for _, p := range t.ASes[asn].Providers() {
			switch color[p] {
			case grey:
				return fmt.Errorf("customer-provider cycle through AS %d and %d", asn, p)
			case white:
				if err := visit(p); err != nil {
					return err
				}
			}
		}
		color[asn] = black
		return nil
	}
	for _, asn := range t.ASNs() {
		if color[asn] == white {
			if err := visit(asn); err != nil {
				return err
			}
		}
	}
	return nil
}
