package tlsscan

import (
	"testing"

	"itmap/internal/topology"
	"itmap/internal/world"
)

func scan(t testing.TB, w *world.World) *Scan {
	t.Helper()
	return ScanAll(w.Top, w.Cat, w.Top.AllPrefixes())
}

func TestScanFindsEverySite(t *testing.T) {
	w := world.Build(world.Tiny(1))
	sc := scan(t, w)
	found := map[topology.PrefixID]bool{}
	for _, s := range sc.Servers {
		found[s.Prefix] = true
	}
	for owner, d := range w.Cat.Deployments {
		for _, site := range d.Sites {
			if !found[site.Prefix] {
				t.Errorf("site %v of owner %d missed by scan", site.Prefix, owner)
			}
		}
		if len(sc.ByOwner[owner]) < len(d.Sites) {
			t.Errorf("owner %d: scan found %d servers, deployment has %d",
				owner, len(sc.ByOwner[owner]), len(d.Sites))
		}
	}
}

func TestScanCertOrgMatchesOwner(t *testing.T) {
	w := world.Build(world.Tiny(2))
	sc := scan(t, w)
	for _, s := range sc.Servers {
		if s.CertOrg != w.Top.ASes[s.OwnerASN].Name {
			t.Fatalf("cert org %q != owner name %q", s.CertOrg, w.Top.ASes[s.OwnerASN].Name)
		}
		if host, _ := w.Top.OwnerOf(s.Prefix); host != s.HostAS {
			t.Fatalf("host AS mismatch for %v", s.Prefix)
		}
	}
}

func TestOffNetDiscovery(t *testing.T) {
	w := world.Build(world.Tiny(3))
	sc := scan(t, w)
	ref := w.Cat.ReferenceCDN
	hosts := sc.OffNetHosts(ref)
	want := w.Cat.Deployments[ref].OffNetByHost
	if len(hosts) != len(want) {
		t.Fatalf("scan found %d off-net hosts, truth %d", len(hosts), len(want))
	}
	for _, h := range hosts {
		if _, ok := want[h]; !ok {
			t.Errorf("false off-net host %d", h)
		}
		if w.Top.ASes[h].Type != topology.Eyeball {
			t.Errorf("off-net host %d is %v", h, w.Top.ASes[h].Type)
		}
	}
}

func TestLocations(t *testing.T) {
	w := world.Build(world.Tiny(4))
	sc := scan(t, w)
	ref := w.Cat.ReferenceCDN
	locs := sc.Locations(ref)
	if len(locs) < 3 {
		t.Errorf("reference CDN spans %d cities, expected global footprint", len(locs))
	}
	for i := 1; i < len(locs); i++ {
		if locs[i].Name < locs[i-1].Name {
			t.Fatal("locations not sorted")
		}
	}
}

func TestSNIFootprint(t *testing.T) {
	w := world.Build(world.Tiny(5))
	sc := scan(t, w)
	svc := w.Cat.Services[0]
	footprint := 0
	for _, s := range sc.Servers {
		if w.Cat.ServesSNI(s.Prefix, "missing.example") {
			t.Errorf("%v answers an unknown hostname", s.Prefix)
		}
		if !w.Cat.ServesSNI(s.Prefix, svc.Domain) {
			continue
		}
		footprint++
		if cert, ok := w.Cat.CertAt(s.Prefix); !ok || cert.OwnerASN != svc.Owner {
			t.Errorf("footprint prefix %v is neither site nor anycast of owner", s.Prefix)
		}
	}
	if footprint == 0 {
		t.Fatal("empty SNI footprint for the top service")
	}
}

func TestUserSpaceSilent(t *testing.T) {
	w := world.Build(world.Tiny(6))
	sc := scan(t, w)
	serving := map[topology.PrefixID]bool{}
	for _, s := range sc.Servers {
		serving[s.Prefix] = true
	}
	// No prefix with users answers TLS (users aren't servers).
	for _, p := range w.Users.UserPrefixes() {
		if serving[p] {
			t.Errorf("user prefix %v answered the TLS scan", p)
		}
	}
}
