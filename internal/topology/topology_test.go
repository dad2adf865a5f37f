package topology

import (
	"itmap/internal/geo"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestGenerateTinyInvariants(t *testing.T) {
	top := Generate(TinyGenConfig(1))
	if err := top.CheckInvariants(); err != nil {
		t.Fatalf("tiny world invariants: %v", err)
	}
	if n := top.NumASes(); n < 50 || n > 400 {
		t.Errorf("tiny world has %d ASes, want 50-400", n)
	}
}

func TestGenerateSmallInvariants(t *testing.T) {
	top := Generate(SmallGenConfig(7))
	if err := top.CheckInvariants(); err != nil {
		t.Fatalf("small world invariants: %v", err)
	}
	if n := top.NumASes(); n < 300 || n > 1500 {
		t.Errorf("small world has %d ASes, want 300-1500", n)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(TinyGenConfig(42))
	b := Generate(TinyGenConfig(42))
	if a.NumASes() != b.NumASes() || a.NumLinks() != b.NumLinks() {
		t.Fatalf("same seed gave different worlds: %d/%d ASes, %d/%d links",
			a.NumASes(), b.NumASes(), a.NumLinks(), b.NumLinks())
	}
	for _, asn := range a.ASNs() {
		aa, ba := a.ASes[asn], b.ASes[asn]
		if ba == nil {
			t.Fatalf("AS %d missing from second world", asn)
		}
		if aa.Name != ba.Name || aa.SubscribersK != ba.SubscribersK ||
			len(aa.Neighbors) != len(ba.Neighbors) || len(aa.Prefixes) != len(ba.Prefixes) {
			t.Fatalf("AS %d differs between same-seed worlds", asn)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := Generate(TinyGenConfig(1))
	b := Generate(TinyGenConfig(2))
	if a.NumLinks() == b.NumLinks() && a.NumASes() == b.NumASes() {
		// Link counts could coincide; check a finer signal.
		same := true
		for _, asn := range a.ASNs() {
			if bb, ok := b.ASes[asn]; !ok || len(bb.Neighbors) != len(a.ASes[asn].Neighbors) {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical-looking worlds")
		}
	}
}

func TestHypergiantsPeerWithLargeEyeballs(t *testing.T) {
	top := Generate(SmallGenConfig(3))
	hgs := top.ASesOfType(Hypergiant)
	if len(hgs) == 0 {
		t.Fatal("no hypergiants generated")
	}
	// Count how many of the largest eyeballs have a direct hypergiant
	// peering; flattening requires most of them to.
	eyeballs := top.ASesOfType(Eyeball)
	withPNI, large := 0, 0
	for _, e := range eyeballs {
		if top.ASes[e].SubscribersK < 5000 {
			continue
		}
		large++
		for _, hg := range hgs {
			if top.HasLink(e, hg) {
				withPNI++
				break
			}
		}
	}
	if large == 0 {
		t.Fatal("no large eyeballs in small world")
	}
	if frac := float64(withPNI) / float64(large); frac < 0.5 {
		t.Errorf("only %.0f%% of large eyeballs peer directly with a hypergiant, want >50%%", frac*100)
	}
}

func TestFrenchISPsNamed(t *testing.T) {
	top := Generate(SmallGenConfig(5))
	fr := top.EyeballsInCountry("FR")
	if len(fr) == 0 {
		t.Skip("no FR in this config")
	}
	names := map[string]bool{}
	for _, asn := range fr {
		names[top.ASes[asn].Name] = true
	}
	for _, want := range []string{"Orange", "SFR", "Free", "Bouygues"} {
		if !names[want] {
			t.Errorf("missing named French ISP %q", want)
		}
	}
	// Orange must be the biggest.
	var orange, sfr *AS
	for _, asn := range fr {
		switch top.ASes[asn].Name {
		case "Orange":
			orange = top.ASes[asn]
		case "SFR":
			sfr = top.ASes[asn]
		}
	}
	if orange != nil && sfr != nil && orange.SubscribersK <= sfr.SubscribersK {
		t.Errorf("Orange (%f) should have more subscribers than SFR (%f)",
			orange.SubscribersK, sfr.SubscribersK)
	}
}

func TestPrefixAllocatorSkipsReserved(t *testing.T) {
	al := NewPrefixAllocator()
	got := al.Alloc(300 * 256) // spans several /8s
	seen := map[PrefixID]bool{}
	for _, p := range got {
		if seen[p] {
			t.Fatalf("duplicate prefix %v", p)
		}
		seen[p] = true
		first := uint32(p) >> 16
		if first == 0 || first == 10 || first == 127 || first >= 224 {
			t.Fatalf("allocated reserved prefix %v", p)
		}
	}
}

func TestPrefixIDRoundTrip(t *testing.T) {
	f := func(a, b, c byte) bool {
		addr := netip.AddrFrom4([4]byte{a, b, c, 77})
		p, err := PrefixFromAddr(addr)
		if err != nil {
			return false
		}
		return netip.PrefixFrom(p.Addr(0), 24).Contains(addr) && p.Addr(77) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelationshipInvert(t *testing.T) {
	cases := []struct{ in, want Relationship }{
		{RelProvider, RelCustomer},
		{RelCustomer, RelProvider},
		{RelPeer, RelPeer},
	}
	for _, c := range cases {
		if got := c.in.Invert(); got != c.want {
			t.Errorf("%v.Invert() = %v, want %v", c.in, got, c.want)
		}
		if got := c.in.Invert().Invert(); got != c.in {
			t.Errorf("double invert of %v = %v", c.in, got)
		}
	}
}

func TestSharedFacilities(t *testing.T) {
	top := Generate(TinyGenConfig(9))
	hgs := top.ASesOfType(Hypergiant)
	t1s := top.ASesOfType(Tier1)
	if len(hgs) == 0 || len(t1s) == 0 {
		t.Fatal("missing giants or tier-1s")
	}
	// Hypergiants and tier-1s are both at all region hubs.
	if len(top.SharedFacilities(hgs[0], t1s[0])) == 0 {
		t.Error("hypergiant and tier-1 share no facilities")
	}
}

func TestLinksEnumeration(t *testing.T) {
	top := Generate(TinyGenConfig(11))
	links := top.Links()
	if len(links) != top.NumLinks() {
		t.Fatalf("Links() returned %d, NumLinks()=%d", len(links), top.NumLinks())
	}
	for _, l := range links {
		if l.A >= l.B {
			t.Fatalf("link %d-%d not canonically ordered", l.A, l.B)
		}
		if !top.HasLink(l.A, l.B) {
			t.Fatalf("enumerated link %d-%d not in adjacency", l.A, l.B)
		}
	}
}

func TestSubscriberMassMatchesCountries(t *testing.T) {
	top := Generate(SmallGenConfig(13))
	// Sum of eyeball subscribers should be within 20% of the covered
	// countries' user population (shares are normalized).
	perCountry := map[string]float64{}
	for _, a := range top.ASes {
		if a.Type == Eyeball {
			perCountry[a.Country] += a.SubscribersK
		}
	}
	for code, subsK := range perCountry {
		country, err := geo.CountryByCode(code)
		if err != nil {
			t.Fatalf("country %s: %v", code, err)
		}
		c := country.InternetUsersM
		if subsK < 0.5*c*1000 || subsK > 1.5*c*1000 {
			t.Errorf("country %s subscribers %.0fk vs users %.0fk out of range", code, subsK, c*1000)
		}
	}
}
