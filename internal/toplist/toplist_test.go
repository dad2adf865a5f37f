package toplist

import (
	"math"
	"slices"
	"testing"

	"itmap/internal/world"
)

// rank is a domain's 1-based position in the list, or 0 if absent.
func rank(l *List, domain string) int {
	return slices.Index(l.Domains, domain) + 1
}

func TestListsRankPopularFirst(t *testing.T) {
	w := world.Build(world.Tiny(1))
	for _, provider := range []Provider{PanelProvider, ResolverProvider} {
		l := Generate(w.Traffic, provider, []int{0}, 0)[0]
		if len(l.Domains) < 20 {
			t.Fatalf("%s list too short: %d", provider, len(l.Domains))
		}
		// The true rank-1 service should place near the top.
		top := w.Cat.Services[0]
		if top.Kind.String() == "anycast" && provider == PanelProvider {
			continue
		}
		if r := rank(l, top.Domain); r == 0 || r > 5 {
			t.Errorf("%s ranks the most popular service at %d", provider, r)
		}
	}
}

func TestPanelExcludesAnycast(t *testing.T) {
	w := world.Build(world.Tiny(2))
	l := Generate(w.Traffic, PanelProvider, []int{0}, 0)[0]
	for _, svc := range w.Cat.Services {
		if svc.Kind.String() == "anycast" && rank(l, svc.Domain) != 0 {
			t.Errorf("panel list includes anycast service %s", svc.Domain)
		}
	}
	lr := Generate(w.Traffic, ResolverProvider, []int{0}, 0)[0]
	found := false
	for _, svc := range w.Cat.Services {
		if svc.Kind.String() == "anycast" && rank(lr, svc.Domain) != 0 {
			found = true
		}
	}
	if !found {
		t.Error("resolver list should include anycast services")
	}
}

func TestChurnGrowsWithDepthAndNoise(t *testing.T) {
	w := world.Build(world.Tiny(3))
	p := Generate(w.Traffic, PanelProvider, []int{1, 2}, 0)
	r := Generate(w.Traffic, ResolverProvider, []int{1, 2}, 0)
	p1, p2, r1, r2 := p[0], p[1], r[0], r[1]
	// The [54] finding: deeper ranks churn more, and panel-style lists
	// churn more than resolver-style lists.
	churnTop5 := TopKChurn(p1, p2, 5)
	churnTop30 := TopKChurn(p1, p2, 30)
	if churnTop30 < churnTop5 {
		t.Errorf("deep churn %.2f < shallow churn %.2f", churnTop30, churnTop5)
	}
	if TopKChurn(r1, r2, 30) > churnTop30+0.05 {
		t.Errorf("resolver list churns more than panel list")
	}
	// Same-day lists are identical.
	if TopKChurn(p1, Generate(w.Traffic, PanelProvider, []int{1}, 0)[0], 30) != 0 {
		t.Error("same-day list not deterministic")
	}
}

func TestRankWeightingMisestimatesTraffic(t *testing.T) {
	w := world.Build(world.Tiny(4))
	mx := w.Traffic.BuildMatrix()
	truth := TrueByteShares(w.Traffic, mx)
	l := Generate(w.Traffic, ResolverProvider, []int{0}, 0)[0]
	err := ShareError(l.WeightBy(), truth)
	// The paper's point: rank position is a poor stand-in for traffic.
	// 1/rank weighting should be visibly wrong (video services carry
	// outsized bytes per query)...
	if err < 0.1 {
		t.Errorf("rank weighting suspiciously accurate: TV distance %.3f", err)
	}
	// ...but not pure noise either.
	if err > 0.9 {
		t.Errorf("rank weighting worse than plausible: %.3f", err)
	}
}

func TestShareError(t *testing.T) {
	a := map[string]float64{"x": 0.5, "y": 0.5}
	if got := ShareError(a, a); got != 0 {
		t.Errorf("identical shares error %f", got)
	}
	b := map[string]float64{"x": 1.0}
	if got := ShareError(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("disjoint-half error %f, want 0.5", got)
	}
}

func TestDepthCap(t *testing.T) {
	w := world.Build(world.Tiny(5))
	l := Generate(w.Traffic, ResolverProvider, []int{0}, 10)[0]
	if len(l.Domains) != 10 {
		t.Errorf("depth cap ignored: %d", len(l.Domains))
	}
	if rank(l, "not-a-domain") != 0 {
		t.Error("unknown domain has a rank")
	}
}
