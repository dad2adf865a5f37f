package apnic

import (
	"testing"

	"itmap/internal/order"
	"itmap/internal/randx"
	"itmap/internal/topology"
	"itmap/internal/users"
)

func setup(t testing.TB) (*topology.Topology, *users.Model, *Estimates) {
	t.Helper()
	top := topology.Generate(topology.TinyGenConfig(1))
	um := users.Build(top, users.DefaultConfig(), randx.New(2))
	est := Estimate(top, um, DefaultConfig(), randx.New(3))
	return top, um, est
}

func TestEstimatesRoughlyRight(t *testing.T) {
	top, um, est := setup(t)
	if len(est.ByAS) == 0 {
		t.Fatal("empty estimates")
	}
	// Aggregate error is bounded: total within 35% of truth.
	truthTotal := 0.0
	for asn := range est.ByAS {
		truthTotal += um.ASUsers(asn)
	}
	ratio := order.SumValues(est.ByAS) / truthTotal
	if ratio < 0.65 || ratio > 1.5 {
		t.Errorf("estimate/truth ratio %.2f", ratio)
	}
	// Every covered AS actually hosts users above the floor.
	for asn := range est.ByAS {
		if um.ASUsers(asn) < DefaultConfig().MinUsers {
			t.Errorf("AS %d below coverage floor is covered", asn)
		}
	}
	_ = top
}

func TestCoverageGaps(t *testing.T) {
	top, um, est := setup(t)
	// Some user-hosting ASes must be missing (coarse coverage).
	missing := 0
	for _, asn := range top.ASNs() {
		if um.ASUsers(asn) > 0 {
			if _, ok := est.Users(asn); !ok {
				missing++
			}
		}
	}
	if missing == 0 {
		t.Error("APNIC-like data should have gaps")
	}
}

func TestDeterministicGivenRng(t *testing.T) {
	top := topology.Generate(topology.TinyGenConfig(1))
	um := users.Build(top, users.DefaultConfig(), randx.New(2))
	a := Estimate(top, um, DefaultConfig(), randx.New(9))
	b := Estimate(top, um, DefaultConfig(), randx.New(9))
	if len(a.ByAS) != len(b.ByAS) {
		t.Fatal("same rng, different coverage")
	}
	for asn, v := range a.ByAS {
		if b.ByAS[asn] != v {
			t.Fatal("same rng, different values")
		}
	}
}
