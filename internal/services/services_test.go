package services

import (
	"sync"
	"testing"

	"itmap/internal/bgp"
	"itmap/internal/geo"
	"itmap/internal/randx"
	"itmap/internal/topology"
)

func buildWorld(t testing.TB, seed int64) (*topology.Topology, *Catalog) {
	t.Helper()
	top := topology.Generate(topology.SmallGenConfig(seed))
	cat := Build(top, DefaultConfig(), randx.New(seed+1))
	return top, cat
}

func TestCatalogBasics(t *testing.T) {
	top, cat := buildWorld(t, 1)
	if len(cat.Services) != DefaultConfig().NServices {
		t.Fatalf("catalog has %d services", len(cat.Services))
	}
	for i, s := range cat.Services {
		if s.Rank != i+1 || int(s.ID) != i {
			t.Fatalf("rank/id misnumbered at %d: %+v", i, s)
		}
		if _, ok := top.ASes[s.Owner]; !ok {
			t.Fatalf("service %s has unknown owner %d", s.Name, s.Owner)
		}
		ot := top.ASes[s.Owner].Type
		if ot != topology.Hypergiant && ot != topology.Cloud {
			t.Fatalf("service %s owned by %v AS", s.Name, ot)
		}
		if s.TTLSeconds <= 0 || s.BytesPerQuery <= 0 {
			t.Fatalf("service %s has invalid TTL/bytes", s.Name)
		}
		if got, ok := cat.ByDomain(s.Domain); !ok || got != s {
			t.Fatalf("domain lookup broken for %s", s.Domain)
		}
	}
	if _, ok := cat.ByDomain("nonexistent.example"); ok {
		t.Error("unknown domain resolved")
	}
}

func TestTop20ECSCount(t *testing.T) {
	_, cat := buildWorld(t, 2)
	ecs := 0
	for _, s := range cat.Services[:20] {
		if s.ECS {
			ecs++
		}
	}
	// Anycast services in the top 20 have ECS forced off, so the count
	// is at most TopECS and close to it.
	if ecs < 12 || ecs > 15 {
		t.Errorf("top-20 ECS count = %d, want ~15", ecs)
	}
}

func TestDeploymentsHaveSitesAndOffNets(t *testing.T) {
	top, cat := buildWorld(t, 3)
	refOffNets := 0
	for owner, d := range cat.Deployments {
		if len(d.OnNetSites()) == 0 {
			t.Fatalf("owner %d has no on-net sites", owner)
		}
		for _, s := range d.Sites {
			if s.Owner != owner {
				t.Fatalf("site owner mismatch")
			}
			if got, ok := top.OwnerOf(s.Prefix); !ok || got != s.HostAS {
				t.Fatalf("site prefix %v not owned by host %d", s.Prefix, s.HostAS)
			}
			if site, ok := cat.SiteAt(s.Prefix); !ok || site != s {
				t.Fatalf("SiteAt broken for %v", s.Prefix)
			}
		}
		if top.ASes[owner].Type == topology.Cloud && len(d.OffNetByHost) != 0 {
			t.Errorf("cloud %d has off-nets", owner)
		}
		if owner == cat.ReferenceCDN {
			refOffNets = len(d.OffNetByHost)
		}
	}
	if refOffNets == 0 {
		t.Error("reference CDN deployed no off-net caches")
	}
}

func TestOffNetHostsAreLargeEyeballs(t *testing.T) {
	top, cat := buildWorld(t, 4)
	cfg := DefaultConfig()
	for _, d := range cat.Deployments {
		for host := range d.OffNetByHost {
			a := top.ASes[host]
			if a.Type != topology.Eyeball {
				t.Fatalf("off-net host %d is %v", host, a.Type)
			}
			if a.SubscribersK < cfg.OffNetMinSubscribersK {
				t.Fatalf("off-net host %d too small (%.0fk)", host, a.SubscribersK)
			}
		}
	}
}

func TestNearestSite(t *testing.T) {
	top, cat := buildWorld(t, 5)
	owner := cat.ReferenceCDN
	coords := []geo.Coord{
		{Lat: 48.9, Lon: 2.4}, {Lat: 35.7, Lon: 139.7}, {Lat: -23.6, Lon: -46.6},
	}
	for _, c := range coords {
		s := cat.NearestSiteTo(owner, c)
		if s == nil {
			t.Fatalf("no site near %v", c)
		}
		// No other site may be strictly closer.
		for _, o := range cat.Deployments[owner].Sites {
			if geo.DistanceKm(c, o.City.Coord) < geo.DistanceKm(c, s.City.Coord) {
				t.Fatalf("NearestSiteTo missed a closer site")
			}
		}
		on := cat.NearestOnNetSiteTo(owner, c)
		if on == nil || on.OffNet() {
			t.Fatalf("NearestOnNetSiteTo returned %+v", on)
		}
	}
	_ = top
}

func TestAnycastCatchments(t *testing.T) {
	top, cat := buildWorld(t, 6)
	ap := bgp.ComputeAll(top)
	var owner topology.ASN
	for _, s := range cat.Services {
		if s.Kind == Anycast {
			owner = s.Owner
			break
		}
	}
	if owner == 0 {
		t.Skip("no anycast service in this seed")
	}
	if !cat.Deployments[owner].HasAnycast {
		t.Fatal("anycast owner has no anycast prefix")
	}
	landed := 0
	sites := map[*Site]bool{}
	for _, e := range top.ASesOfType(topology.Eyeball) {
		s := cat.AnycastCatchment(ap, owner, e)
		if s == nil {
			continue
		}
		if s.OffNet() {
			t.Fatal("anycast landed at an off-net cache")
		}
		landed++
		sites[s] = true
	}
	if landed == 0 {
		t.Fatal("no eyeball reached the anycast owner")
	}
	if len(sites) < 2 {
		t.Errorf("all catchments land at %d site; expected geographic spread", len(sites))
	}
}

func TestCertAndSNI(t *testing.T) {
	top, cat := buildWorld(t, 7)
	// Every site prefix serves a cert naming the owner.
	for owner, d := range cat.Deployments {
		for _, s := range d.Sites {
			ci, ok := cat.CertAt(s.Prefix)
			if !ok || ci.OwnerASN != owner || ci.Org != top.ASes[owner].Name {
				t.Fatalf("CertAt(%v) = %+v, %v", s.Prefix, ci, ok)
			}
		}
	}
	// User prefixes do not answer.
	for _, e := range top.ASesOfType(topology.Eyeball) {
		p := top.ASes[e].Prefixes[0]
		if _, ok := cat.SiteAt(p); ok {
			continue // could be an off-net allocated later in the list
		}
		if _, ok := cat.CertAt(p); ok {
			t.Fatalf("non-server prefix %v answered TLS", p)
		}
		break
	}
	// SNI: a service's domain is served exactly on its owner's sites.
	svc := cat.Services[0]
	d := cat.Deployments[svc.Owner]
	if !cat.ServesSNI(d.Sites[0].Prefix, svc.Domain) {
		t.Error("owner site refuses its own service SNI")
	}
	for owner, od := range cat.Deployments {
		if owner == svc.Owner {
			continue
		}
		if cat.ServesSNI(od.Sites[0].Prefix, svc.Domain) {
			t.Errorf("foreign site serves %s", svc.Domain)
		}
	}
	if cat.ServesSNI(d.Sites[0].Prefix, "nope.example") {
		t.Error("unknown SNI served")
	}
}

func TestECSDomainsPopularFirst(t *testing.T) {
	_, cat := buildWorld(t, 8)
	domains := cat.ECSDomains()
	if len(domains) == 0 {
		t.Fatal("no ECS domains")
	}
	for _, dom := range domains {
		s, ok := cat.ByDomain(dom)
		if !ok || !s.ECS || s.Kind == Anycast {
			t.Fatalf("ECS domain list contains %s (%+v)", dom, s)
		}
	}
	first, _ := cat.ByDomain(domains[0])
	last, _ := cat.ByDomain(domains[len(domains)-1])
	if first.Rank > last.Rank {
		t.Error("ECS domains not ordered by popularity")
	}
}

func TestReferenceCDNIsHypergiant(t *testing.T) {
	top, cat := buildWorld(t, 9)
	if top.ASes[cat.ReferenceCDN].Type != topology.Hypergiant {
		t.Fatal("reference CDN is not a hypergiant")
	}
	found := false
	for _, s := range cat.Services {
		if s.Owner == cat.ReferenceCDN {
			found = true
		}
	}
	if !found {
		t.Error("reference CDN owns no services")
	}
}

func TestPopularityMassConcentrated(t *testing.T) {
	_, cat := buildWorld(t, 10)
	top5 := 0.0
	for k := 1; k <= 5; k++ {
		top5 += cat.Popularity.Weight(k)
	}
	if top5 < 0.35 {
		t.Errorf("top-5 services carry only %.0f%% of demand", top5*100)
	}
}

// scanNearestSite is NearestSiteTo as it stood before the memo.
func scanNearestSite(c *Catalog, owner topology.ASN, at geo.Coord) *Site {
	d := c.Deployments[owner]
	if d == nil || len(d.Sites) == 0 {
		return nil
	}
	var best *Site
	bestDist := 0.0
	for _, s := range d.Sites {
		dist := geo.DistanceKm(at, s.City.Coord)
		if best == nil || dist < bestDist ||
			(dist == bestDist && s.Prefix < best.Prefix) {
			best, bestDist = s, dist
		}
	}
	return best
}

// TestNearestSiteMemoMatchesScan: for every ⟨owner, city⟩ of the world —
// and an AS that owns nothing — the memoized answer is the scan's, asked
// from several goroutines at once on a cold catalog (run with -race).
func TestNearestSiteMemoMatchesScan(t *testing.T) {
	top, cat := buildWorld(t, 6)
	seen := map[geo.Coord]bool{}
	var coords []geo.Coord
	for _, p := range top.AllPrefixes() {
		if c := top.PrefixCity[p].Coord; !seen[c] {
			seen[c] = true
			coords = append(coords, c)
		}
	}
	owners := append(cat.Owners(), topology.ASN(1<<30))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for i := range coords {
					at := coords[(i+g*len(coords)/4)%len(coords)]
					for _, owner := range owners {
						if got, want := cat.NearestSiteTo(owner, at), scanNearestSite(cat, owner, at); got != want {
							t.Errorf("NearestSiteTo(%d, %v) = %v, scan says %v", owner, at, got, want)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if len(coords) < 5 || len(cat.nearest) != len(coords)*len(owners) {
		t.Errorf("memo holds %d entries for %d cities x %d owners", len(cat.nearest), len(coords), len(owners))
	}
}
