package core

import (
	"testing"

	"itmap/internal/apnic"
	"itmap/internal/bgp"
	"itmap/internal/measure/cacheprobe"
	"itmap/internal/measure/rootlogs"
	"itmap/internal/measure/tlsscan"
	"itmap/internal/order"
	"itmap/internal/randx"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/world"
)

// buildFullMap runs the complete measurement pipeline on a tiny world.
func buildFullMap(t testing.TB, seed int64) (*world.World, *TrafficMap) {
	t.Helper()
	w := world.Build(world.Tiny(seed))
	pb := &cacheprobe.Prober{PR: w.PR, Domains: w.Cat.ECSDomains()[:8]}
	disc, err := pb.DiscoverPrefixes(w.Top, w.Top.AllPrefixes(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := pb.MeasureHitRates(w.Top, w.Top.AllPrefixes(), w.Cat.ECSDomains()[0], 0, 30*simtime.Minute)
	if err != nil {
		t.Fatal(err)
	}
	crawl := rootlogs.CrawlDay(w.Roots, w.Traffic, 0)
	scan := tlsscan.ScanAll(w.Top, w.Cat, w.Top.AllPrefixes())
	m := BuildMap(BuildInputs{
		Top:                 w.Top,
		Discovery:           disc,
		HitRates:            FoldHitRates(w.Top, hr),
		RootCrawl:           crawl,
		PublicResolverOwner: w.PR.Owner,
		Scan:                scan,
		Auth:                w.Auth,
		PR:                  w.PR,
		MapDomains:          w.Cat.ECSDomains()[:5],
	})
	return w, m
}

func TestMapValidationMatchesPaperShape(t *testing.T) {
	w, m := buildFullMap(t, 1)
	mx := w.Traffic.BuildMatrix()
	est := apnic.Estimate(w.Top, w.Users, apnic.DefaultConfig(), randx.New(2))
	v := ValidateUsers(m.Document(), mx, est)

	// The §3.1.2 headline shapes (paper: 95%, 60%, 99%, <1%, 98%).
	if v.PrefixTrafficRecall < 0.85 {
		t.Errorf("prefix traffic recall %.2f, want >= 0.85", v.PrefixTrafficRecall)
	}
	if v.ASTrafficRecallRoots < 0.5 {
		t.Errorf("root-log AS recall %.2f, want >= 0.5", v.ASTrafficRecallRoots)
	}
	if v.ASTrafficRecallCombined < v.ASTrafficRecallRoots {
		t.Error("combined recall below root-only recall")
	}
	if v.ASTrafficRecallCombined < 0.9 {
		t.Errorf("combined AS recall %.2f, want >= 0.9", v.ASTrafficRecallCombined)
	}
	if v.FalseDiscoveryFrac > 0.05 {
		t.Errorf("false discovery %.3f, want small", v.FalseDiscoveryFrac)
	}
	if v.APNICUserCoverage < 0.9 {
		t.Errorf("APNIC coverage %.2f, want >= 0.9", v.APNICUserCoverage)
	}
	if v.ActivityRankCorr < 0.5 {
		t.Errorf("activity rank correlation %.2f, want >= 0.5", v.ActivityRankCorr)
	}
}

func TestMapCombinesSources(t *testing.T) {
	_, m := buildFullMap(t, 2)
	both, cacheOnly, rootOnly := 0, 0, 0
	for _, src := range m.Sources {
		switch {
		case src == FromCacheProbe|FromRootLogs:
			both++
		case src == FromCacheProbe:
			cacheOnly++
		case src == FromRootLogs:
			rootOnly++
		}
	}
	if both == 0 {
		t.Error("no AS seen by both techniques")
	}
	if both+cacheOnly+rootOnly == 0 {
		t.Fatal("empty map")
	}
	// Activity estimates exist for ASes with signals.
	if len(m.ASActivity) == 0 {
		t.Fatal("no activity estimates")
	}
	for asn, v := range m.ASActivity {
		if v <= 0 {
			t.Fatalf("non-positive activity for AS %d", asn)
		}
	}
}

func TestMappingAgreement(t *testing.T) {
	w, m := buildFullMap(t, 3)
	if len(m.Mappings) == 0 {
		t.Fatal("no mappings measured")
	}
	val := ValidateMapping(m.Document(), w.Traffic)
	if val.Checked == 0 {
		t.Fatal("no mappings validated")
	}
	if val.Agreement < 0.9 {
		t.Errorf("mapping agreement %.2f, want >= 0.9 for ECS services", val.Agreement)
	}
}

func TestOutageImpact(t *testing.T) {
	w, m := buildFullMap(t, 4)
	// Biggest eyeball: outage must show meaningful activity share and
	// affected services.
	var target topology.ASN
	best := 0.0
	for _, asn := range w.Top.ASesOfType(topology.Eyeball) {
		if u := w.Users.ASUsers(asn); u > best {
			best, target = u, asn
		}
	}
	rep := m.OutageImpact(target)
	if rep.ActivityShare <= 0 {
		t.Error("no activity share for the biggest eyeball")
	}
	if rep.ActivePrefixes == 0 {
		t.Error("no active prefixes detected")
	}
	if len(rep.AffectedServices) == 0 {
		t.Error("no affected services")
	}
	// If the AS hosts off-net caches, the report must notice and offer
	// fallbacks elsewhere.
	hostsOffNet := false
	for _, d := range w.Cat.Deployments {
		if _, ok := d.OffNetByHost[target]; ok {
			hostsOffNet = true
		}
	}
	if hostsOffNet && rep.HostedServers == 0 {
		t.Error("report missed hosted off-net servers")
	}
	for dom, fb := range rep.Fallbacks {
		if owner, ok := w.Top.OwnerOf(fb); ok && owner == target {
			t.Errorf("fallback for %s is inside the failed AS", dom)
		}
	}
	// Unknown AS yields an empty but safe report.
	empty := m.OutageImpact(999999)
	if empty.ActivityShare != 0 || len(empty.AffectedServices) != 0 {
		t.Error("unknown AS produced a non-empty report")
	}
}

func TestCountryImpact(t *testing.T) {
	w, m := buildFullMap(t, 5)
	total := 0.0
	seen := map[string]bool{}
	for _, asn := range order.Keys(m.Sources) {
		a := w.Top.ASes[asn]
		if a.Country != "ZZ" {
			seen[a.Country] = true
		}
	}
	for code := range seen {
		ci := m.CountryImpactOf(code)
		if ci.ActivityShare < 0 || ci.ActivityShare > 1 {
			t.Fatalf("country %s share %f", code, ci.ActivityShare)
		}
		total += ci.ActivityShare
	}
	if total < 0.95 || total > 1.001 {
		t.Errorf("country shares sum to %.3f", total)
	}
}

// TestPredictionOnObservedView: routes predicted on the public view the
// collectors export reach some eyeballs from a hypergiant. Pairs relying on
// invisible peerings fail, but a tiny world may have none; E4 tests that
// shape.
func TestPredictionOnObservedView(t *testing.T) {
	w := world.Build(world.Tiny(6))
	col := &bgp.Collector{Peers: bgp.DefaultCollectorPeers(w.Top, randx.New(6))}
	observed := w.Top.SubgraphWithLinks(col.ObservedLinks(w.Paths))
	rib := bgp.ComputeRIB(observed, w.Top.ASesOfType(topology.Hypergiant)[0])
	for _, e := range w.Top.ASesOfType(topology.Eyeball) {
		if rib.PathFrom(e) != nil {
			return
		}
	}
	t.Error("no path predicted at all")
}

func TestCoverageSummary(t *testing.T) {
	w, m := buildFullMap(t, 7)
	userASes := map[topology.ASN]bool{}
	for _, asn := range w.Top.ASNs() {
		if w.Users.ASUsers(asn) > 0 {
			userASes[asn] = true
		}
	}
	asesFound := 0
	for asn := range m.Sources {
		if userASes[asn] {
			asesFound++
		}
	}
	if asesFound == 0 || asesFound > len(userASes) {
		t.Fatalf("bad AS coverage %d/%d", asesFound, len(userASes))
	}
	if found, total := len(m.ActivePrefixes), len(w.Users.UserPrefixes()); found == 0 || found > total {
		t.Fatalf("bad prefix coverage %d/%d", found, total)
	}
}
