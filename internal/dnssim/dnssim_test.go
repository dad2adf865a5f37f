package dnssim

import (
	"math"
	"testing"

	"itmap/internal/geo"
	"itmap/internal/randx"
	"itmap/internal/services"
	"itmap/internal/simtime"
	"itmap/internal/topology"
)

func setup(t testing.TB, seed int64) (*topology.Topology, *services.Catalog, *PublicResolver) {
	t.Helper()
	top := topology.Generate(topology.TinyGenConfig(seed))
	cat := services.Build(top, services.DefaultConfig(), randx.New(seed))
	top.Freeze()
	hgs := top.ASesOfType(topology.Hypergiant)
	pr := NewPublicResolver(top, cat, hgs[0], seed)
	return top, cat, pr
}

// constRate is a RateSource with a fixed per-(domain, prefix) rate table.
type constRate struct {
	rates map[string]map[topology.PrefixID]float64
}

func (c *constRate) Clients(scope topology.PrefixID) Clients { return Clients{Scope: scope} }

func (c *constRate) QueryRate(svc *services.Service, cl Clients) QueryRate {
	return QueryRate{PerHour: c.rates[svc.Domain][cl.Scope], Flat: true}
}

func ecsDomain(t *testing.T, cat *services.Catalog) *services.Service {
	t.Helper()
	for _, s := range cat.Services {
		if s.ECS && s.Kind != services.Anycast {
			return s
		}
	}
	t.Fatal("no ECS service")
	return nil
}

func TestHomePoPIsNearest(t *testing.T) {
	top, _, pr := setup(t, 1)
	for _, p := range top.AllPrefixes()[:200] {
		home := pr.HomePoP(p)
		if home == nil {
			t.Fatalf("prefix %v has no home PoP", p)
		}
		city := top.PrefixCity[p]
		for _, pop := range pr.PoPs {
			if geo.DistanceKm(city.Coord, pop.City.Coord) <
				geo.DistanceKm(city.Coord, home.City.Coord)-1e-9 {
				t.Fatalf("prefix %v homed to %s but %s is closer", p, home.Name, pop.Name)
			}
		}
	}
}

// probeCache is one cache probe off any grid: Prepare, then At.
func probeCache(pr *PublicResolver, popID int, domain string, ecs topology.PrefixID, t simtime.Time) (bool, error) {
	p := pr.Prepare(popID, domain, ecs)
	return p.At(t, ProbeOpts{})
}

func TestProbeCacheHitTracksRate(t *testing.T) {
	top, cat, pr := setup(t, 2)
	svc := ecsDomain(t, cat)
	// Two prefixes: one hot, one idle.
	eyeballs := top.ASesOfType(topology.Eyeball)
	hot := top.ASes[eyeballs[0]].Prefixes[0]
	cold := top.ASes[eyeballs[1]].Prefixes[0]
	cr := &constRate{rates: map[string]map[topology.PrefixID]float64{
		svc.Domain: {hot: 100000, cold: 0},
	}}
	pr.SetRateSource(cr)

	hotPop := pr.HomePoP(hot)
	hits := 0
	probes := 0
	for ti := 0; ti < 200; ti++ {
		tm := simtime.Time(float64(ti) * 0.11)
		h, err := probeCache(pr, hotPop.ID, svc.Domain, hot, tm)
		if err != nil {
			t.Fatal(err)
		}
		probes++
		if h {
			hits++
		}
	}
	if hits < probes*9/10 {
		t.Errorf("hot prefix hit %d/%d probes, want nearly all", hits, probes)
	}
	coldPop := pr.HomePoP(cold)
	for ti := 0; ti < 50; ti++ {
		h, err := probeCache(pr, coldPop.ID, svc.Domain, cold, simtime.Time(float64(ti)*0.13))
		if err != nil {
			t.Fatal(err)
		}
		if h {
			t.Fatal("idle prefix produced a cache hit")
		}
	}
}

func TestProbeWrongPoPMisses(t *testing.T) {
	top, cat, pr := setup(t, 3)
	svc := ecsDomain(t, cat)
	p := top.ASes[top.ASesOfType(topology.Eyeball)[0]].Prefixes[0]
	cr := &constRate{rates: map[string]map[topology.PrefixID]float64{
		svc.Domain: {p: 1e9},
	}}
	pr.SetRateSource(cr)
	home := pr.HomePoP(p)
	for _, pop := range pr.PoPs {
		if pop.ID == home.ID {
			continue
		}
		hit, err := probeCache(pr, pop.ID, svc.Domain, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatalf("cache entry for %v leaked to PoP %s", p, pop.Name)
		}
	}
}

func TestProbeDeterministicWithinTTLWindow(t *testing.T) {
	top, cat, pr := setup(t, 4)
	svc := ecsDomain(t, cat)
	p := top.ASes[top.ASesOfType(topology.Eyeball)[0]].Prefixes[0]
	cr := &constRate{rates: map[string]map[topology.PrefixID]float64{
		svc.Domain: {p: 20}, // mid occupancy
	}}
	pr.SetRateSource(cr)
	home := pr.HomePoP(p)
	ttl := simtime.Seconds(float64(svc.TTLSeconds))
	base := simtime.Time(5)
	h1, _ := probeCache(pr, home.ID, svc.Domain, p, base)
	h2, _ := probeCache(pr, home.ID, svc.Domain, p, base+ttl/10)
	if h1 != h2 {
		t.Error("probe outcome changed within one TTL window")
	}
}

func TestProbeErrors(t *testing.T) {
	top, cat, pr := setup(t, 5)
	p := top.AllPrefixes()[0]
	if _, err := probeCache(pr, 0, "x.example", p, 1); err == nil {
		t.Error("NXDOMAIN accepted")
	}
	svc := ecsDomain(t, cat)
	pr.SetRateSource(&constRate{})
	if _, err := probeCache(pr, 999, svc.Domain, p, 1); err == nil {
		t.Error("unknown PoP accepted")
	}
	// Non-ECS domains cannot be probed per-prefix.
	for _, s := range cat.Services {
		if !s.ECS {
			if _, err := probeCache(pr, 0, s.Domain, p, 1); err == nil {
				t.Errorf("non-ECS domain %s probe accepted", s.Domain)
			}
			break
		}
	}
}

func TestAdoptionShareBounded(t *testing.T) {
	_, _, pr := setup(t, 6)
	total, n := 0.0, 0
	for _, c := range geo.Countries() {
		s := pr.AdoptionShare(c.Code)
		if s < 0.10 || s > 0.55 {
			t.Fatalf("adoption share %f for %s out of bounds", s, c.Code)
		}
		total += s
		n++
	}
	mean := total / float64(n)
	if mean < 0.25 || mean < 0.2 || mean > 0.45 {
		t.Errorf("mean adoption %f, want ~0.32", mean)
	}
	if pr.AdoptionShare("FR") != pr.AdoptionShare("FR") {
		t.Error("adoption share not deterministic")
	}
}

func TestAuthoritativeECS(t *testing.T) {
	top, cat, _ := setup(t, 7)
	au := NewAuthoritative(top, cat)
	svc := ecsDomain(t, cat)
	for _, e := range top.ASesOfType(topology.Eyeball) {
		p := top.ASes[e].Prefixes[0]
		ans, err := au.ResolveECS(svc.Domain, p, geo.Coord{Lat: 0, Lon: 0})
		if err != nil {
			t.Fatal(err)
		}
		if ans.Site == nil {
			t.Fatal("DNS-unicast answer missing site")
		}
		if ans.Site.Owner != svc.Owner {
			t.Fatalf("answer site owned by %d, want %d", ans.Site.Owner, svc.Owner)
		}
		// If the client's AS hosts an off-net of the owner, it wins.
		if off, ok := cat.OffNetFor(svc.Owner, e); ok && ans.Site != off {
			t.Errorf("client in %d not mapped to its off-net", e)
		}
	}
	if _, err := au.ResolveECS("nope.example", 0, geo.Coord{}); err == nil {
		t.Error("NXDOMAIN accepted")
	}
}

func TestAuthoritativeAnycast(t *testing.T) {
	top, cat, _ := setup(t, 8)
	au := NewAuthoritative(top, cat)
	var any *services.Service
	for _, s := range cat.Services {
		if s.Kind == services.Anycast {
			any = s
			break
		}
	}
	if any == nil {
		t.Skip("no anycast service")
	}
	p1 := top.ASes[top.ASesOfType(topology.Eyeball)[0]].Prefixes[0]
	p2 := top.ASes[top.ASesOfType(topology.Eyeball)[1]].Prefixes[0]
	a1, err1 := au.ResolveECS(any.Domain, p1, geo.Coord{})
	a2, err2 := au.ResolveECS(any.Domain, p2, geo.Coord{})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if a1.Prefix != a2.Prefix {
		t.Error("anycast answers differ by client; should be one prefix")
	}
	if a1.Site != nil {
		t.Error("anycast answer carries a DNS-chosen site")
	}
}

func TestRootSystemLogs(t *testing.T) {
	rs := NewRootSystem(0.3)
	usable := 0
	for _, l := range rs.Letters {
		if !l.Anonymized {
			usable++
		}
	}
	if usable != 9 {
		t.Errorf("usable letters = %d, want 9 of 13", usable)
	}
	src := staticChromium{
		{ResolverPrefix: 100, ResolverASN: 3000, Queries: 1300},
		{ResolverPrefix: 200, ResolverASN: 3001, Queries: 2600},
	}
	logs := rs.DayLogs(0, src)
	if len(logs) != 13 {
		t.Fatalf("got logs for %d letters", len(logs))
	}
	for _, l := range rs.Letters {
		entries := logs[l.Letter]
		var sum float64
		for _, e := range entries {
			sum += e.Queries
			if l.Anonymized && e.ResolverASN != 0 {
				t.Errorf("letter %c leaks resolver identity", l.Letter)
			}
			if !l.Anonymized && e.ResolverASN == 0 {
				t.Errorf("letter %c lost resolver identity", l.Letter)
			}
		}
		if math.Abs(sum-300) > 1e-9 {
			t.Errorf("letter %c carries %f queries, want 300", l.Letter, sum)
		}
	}
}

type staticChromium []RootLogEntry

func (s staticChromium) ChromiumRootQueries(day int) []RootLogEntry { return s }

func TestResolverOfAS(t *testing.T) {
	top, _, _ := setup(t, 9)
	for _, asn := range top.ASNs()[:20] {
		p, ok := ResolverOfAS(top, asn)
		if !ok {
			t.Fatalf("AS %d has no resolver", asn)
		}
		if owner, _ := top.OwnerOf(p); owner != asn {
			t.Fatalf("resolver prefix %v not in AS %d", p, asn)
		}
	}
	if _, ok := ResolverOfAS(top, 999999); ok {
		t.Error("unknown AS resolved")
	}
}
