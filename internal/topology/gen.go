package topology

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"itmap/internal/geo"
	"itmap/internal/order"
	"itmap/internal/randx"
)

// GenConfig parameterizes the synthetic Internet generator.
type GenConfig struct {
	// Seed drives all randomness; identical (config, seed) pairs yield
	// identical topologies.
	Seed int64

	// Scale multiplies AS counts and prefix counts. 1.0 is the Default
	// world (~2.5k ASes, ~45k /24s).
	Scale float64

	// CountryLimit keeps only the top-N countries by Internet users
	// (0 = all).
	CountryLimit int

	// NTier1 is the size of the tier-1 clique.
	NTier1 int

	// NHypergiants is how many content hypergiant ASes exist.
	NHypergiants int

	// NClouds is how many cloud-provider ASes exist.
	NClouds int

	// PrefixPer100kUsers sets address-space density: /24s allocated per
	// 100k eyeball subscribers.
	PrefixPer100kUsers float64

	// HypergiantEyeballPeering is the probability that a hypergiant
	// establishes a PNI with one of the large eyeballs it targets.
	HypergiantEyeballPeering float64
}

// DefaultGenConfig returns the Default world configuration.
func DefaultGenConfig(seed int64) GenConfig {
	return GenConfig{
		Seed:                     seed,
		Scale:                    1.0,
		CountryLimit:             0,
		NTier1:                   12,
		NHypergiants:             8,
		NClouds:                  3,
		PrefixPer100kUsers:       1.0,
		HypergiantEyeballPeering: 0.85,
	}
}

// SmallGenConfig returns a ~600-AS world for integration tests and examples.
func SmallGenConfig(seed int64) GenConfig {
	c := DefaultGenConfig(seed)
	c.Scale = 0.3
	c.CountryLimit = 20
	c.NTier1 = 8
	c.NHypergiants = 6
	c.NClouds = 2
	return c
}

// TinyGenConfig returns a ~120-AS world for unit tests.
func TinyGenConfig(seed int64) GenConfig {
	c := DefaultGenConfig(seed)
	c.Scale = 0.08
	c.CountryLimit = 8
	c.NTier1 = 4
	c.NHypergiants = 3
	c.NClouds = 1
	return c
}

// ASN ranges per role keep generated ASNs recognizable in output.
const (
	asnTier1Base      ASN = 1000
	asnTransitBase    ASN = 2000
	asnEyeballBase    ASN = 3000
	asnHypergiantBase ASN = 15000
	asnCloudBase      ASN = 16000
	asnAcademicBase   ASN = 40000
	asnEnterpriseBase ASN = 50000
)

// frenchISPs name the large French eyeballs so Figure 2's case study reads
// like the paper's.
var frenchISPs = []struct {
	name string
	// subscriber share of the country's users
	share float64
}{
	{"Orange", 0.31}, {"SFR", 0.20}, {"Free", 0.19},
	{"Bouygues", 0.12}, {"Free_M", 0.07}, {"El_tele", 0.04},
}

// Generate builds a synthetic AS-level Internet per the config.
func Generate(cfg GenConfig) *Topology {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	if cfg.NTier1 < 2 {
		cfg.NTier1 = 2
	}
	if cfg.PrefixPer100kUsers <= 0 {
		cfg.PrefixPer100kUsers = 1.0
	}
	rng := randx.New(cfg.Seed)
	t := NewTopology()
	alloc := NewPrefixAllocator()
	var homes []prefixHome

	countries := geo.Countries()
	if cfg.CountryLimit > 0 && cfg.CountryLimit < len(countries) {
		countries = countries[:cfg.CountryLimit]
	}

	// --- Facilities -------------------------------------------------
	// Two per region hub, one per country capital.
	facByCity := map[string][]FacilityID{} // city name -> facility IDs
	addFacility := func(name string, city geo.City) FacilityID {
		id := FacilityID(len(t.Facilities))
		t.Facilities = append(t.Facilities, Facility{ID: id, Name: name, City: city})
		facByCity[city.Name] = append(facByCity[city.Name], id)
		return id
	}
	regionHubFacs := map[geo.Region][]FacilityID{}
	for _, r := range geo.Regions() {
		hub := geo.RegionHub(r)
		if hub.Name == "" {
			continue
		}
		f1 := addFacility(fmt.Sprintf("%s-DC1", hub.Name), hub)
		f2 := addFacility(fmt.Sprintf("%s-DC2", hub.Name), hub)
		regionHubFacs[r] = []FacilityID{f1, f2}
	}
	countryFac := map[string]FacilityID{}
	for _, c := range countries {
		if len(facByCity[c.Capital.Name]) > 0 {
			countryFac[c.Code] = facByCity[c.Capital.Name][0]
			continue
		}
		countryFac[c.Code] = addFacility(fmt.Sprintf("%s-IX-DC", c.Capital.Name), c.Capital)
	}

	// --- Tier-1 clique ----------------------------------------------
	var tier1s []ASN
	for i := 0; i < cfg.NTier1; i++ {
		asn := asnTier1Base + ASN(i)
		region := geo.Regions()[i%len(geo.Regions())]
		if _, ok := regionHubFacs[region]; !ok {
			region = countries[0].Region
		}
		a := &AS{
			ASN:     asn,
			Name:    fmt.Sprintf("Backbone-%d", i+1),
			Type:    Tier1,
			Country: "ZZ",
			Region:  region,
			Policy:  PolicyRestrictive,
		}
		// Tier-1s are present at every region hub.
		for _, r := range geo.Regions() {
			a.Facilities = append(a.Facilities, regionHubFacs[r]...)
		}
		// Small infrastructure address space.
		a.Prefixes = alloc.Alloc(2)
		homes = append(homes, prefixHome{a, geo.RegionHub(region)})
		t.AddAS(a)
		tier1s = append(tier1s, asn)
	}
	for i := 0; i < len(tier1s); i++ {
		for j := i + 1; j < len(tier1s); j++ {
			fac := regionHubFacs[geo.Regions()[0]][0]
			t.AddLink(tier1s[i], tier1s[j], RelPeer, PrivatePeering, fac)
		}
	}

	// --- Transit per region ------------------------------------------
	regionCountries := map[geo.Region][]geo.Country{}
	for _, c := range countries {
		regionCountries[c.Region] = append(regionCountries[c.Region], c)
	}
	transitByRegion := map[geo.Region][]ASN{}
	var allTransit []ASN
	nextTransit := asnTransitBase
	for _, r := range geo.Regions() {
		cs := regionCountries[r]
		if len(cs) == 0 {
			continue
		}
		regionUsers := 0.0
		for _, c := range cs {
			regionUsers += c.InternetUsersM
		}
		n := int(math.Max(2, math.Round((2+regionUsers/90)*cfg.Scale*2)))
		for i := 0; i < n; i++ {
			home := cs[rng.WeightedChoice(countryWeights(cs))]
			asn := nextTransit
			nextTransit++
			a := &AS{
				ASN:     asn,
				Name:    fmt.Sprintf("Transit-%s-%d", r, i+1),
				Type:    Transit,
				Country: home.Code,
				Region:  r,
				Policy:  PolicySelective,
			}
			a.Facilities = append(a.Facilities, countryFac[home.Code])
			a.Facilities = append(a.Facilities, regionHubFacs[r]...)
			// A slice of transit providers are also present at one
			// foreign hub (remote peering, cross-region reach).
			if rng.Bool(0.3) {
				other := geo.Regions()[rng.Intn(len(geo.Regions()))]
				if fs, ok := regionHubFacs[other]; ok && other != r {
					a.Facilities = append(a.Facilities, fs[0])
				}
			}
			a.Prefixes = alloc.Alloc(1 + rng.Intn(3))
			homes = append(homes, prefixHome{a, home.Capital})
			t.AddAS(a)
			// 1-3 tier-1 providers.
			nProv := rng.IntBetween(1, min(3, len(tier1s)))
			for _, pi := range rng.Perm(len(tier1s))[:nProv] {
				t.AddLink(asn, tier1s[pi], RelProvider, TransitLink, regionHubFacs[r][0])
			}
			transitByRegion[r] = append(transitByRegion[r], asn)
			allTransit = append(allTransit, asn)
		}
	}
	// Transit-to-transit peering inside regions (and a little across).
	for _, r := range geo.Regions() {
		ts := transitByRegion[r]
		for i := 0; i < len(ts); i++ {
			for j := i + 1; j < len(ts); j++ {
				if rng.Bool(0.35) && !t.HasLink(ts[i], ts[j]) {
					t.AddLink(ts[i], ts[j], RelPeer, PrivatePeering, regionHubFacs[r][0])
				}
			}
		}
	}
	for i := 0; i < len(allTransit); i++ {
		for j := i + 1; j < len(allTransit); j++ {
			if t.ASes[allTransit[i]].Region == t.ASes[allTransit[j]].Region {
				continue
			}
			if rng.Bool(0.04) && !t.HasLink(allTransit[i], allTransit[j]) {
				shared := t.SharedFacilities(allTransit[i], allTransit[j])
				fac := regionHubFacs[t.ASes[allTransit[i]].Region][0]
				if len(shared) > 0 {
					fac = shared[0]
				}
				t.AddLink(allTransit[i], allTransit[j], RelPeer, PrivatePeering, fac)
			}
		}
	}

	// --- Eyeball ISPs per country -------------------------------------
	eyeballsByCountry := map[string][]ASN{}
	var allEyeballs []ASN
	nextEyeball := asnEyeballBase
	for _, c := range countries {
		n := int(math.Max(2, math.Round((2+math.Sqrt(c.InternetUsersM)*2.0)*cfg.Scale)))
		// Subscriber shares: named French ISPs use fixed shares so the
		// Figure 2 case study is stable; everyone else draws Pareto.
		shares := make([]float64, n)
		names := make([]string, n)
		if c.Code == "FR" {
			rest := 1.0
			for i := 0; i < n; i++ {
				if i < len(frenchISPs) {
					names[i] = frenchISPs[i].name
					shares[i] = frenchISPs[i].share
					rest -= frenchISPs[i].share
				} else {
					names[i] = fmt.Sprintf("FR-ISP-%d", i+1)
					shares[i] = math.Max(0.002, rest/float64(n-len(frenchISPs)+1))
				}
			}
		} else {
			total := 0.0
			raw := make([]float64, n)
			for i := range raw {
				raw[i] = rng.Pareto(1, 1.1)
				total += raw[i]
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(raw)))
			for i := range raw {
				shares[i] = raw[i] / total
				names[i] = fmt.Sprintf("%s-ISP-%d", c.Code, i+1)
			}
		}
		region := c.Region
		for i := 0; i < n; i++ {
			asn := nextEyeball
			nextEyeball++
			subsK := shares[i] * c.InternetUsersM * 1000
			a := &AS{
				ASN:          asn,
				Name:         names[i],
				Type:         Eyeball,
				Country:      c.Code,
				Region:       region,
				Policy:       PolicyOpen,
				SubscribersK: subsK,
			}
			if rng.Bool(0.4) {
				a.Policy = PolicySelective
			}
			a.Facilities = append(a.Facilities, countryFac[c.Code])
			if i < 3 { // the country's largest ISPs reach the region hub
				a.Facilities = append(a.Facilities, regionHubFacs[region][0])
			}
			nPfx := int(math.Max(1, math.Round(subsK/100*cfg.PrefixPer100kUsers)))
			a.Prefixes = alloc.Alloc(nPfx)
			homes = append(homes, prefixHome{a, c.Capital})
			t.AddAS(a)
			// Providers: 1-2 regional transit, preferring home country.
			ts := transitByRegion[region]
			if len(ts) == 0 {
				ts = allTransit
			}
			nProv := rng.IntBetween(1, min(2, len(ts)))
			for _, pi := range rng.Perm(len(ts))[:nProv] {
				t.AddLink(asn, ts[pi], RelProvider, TransitLink, countryFac[c.Code])
			}
			// The very largest eyeballs buy a tier-1 upstream too.
			if i == 0 && c.InternetUsersM > 50 {
				p := tier1s[rng.Intn(len(tier1s))]
				if !t.HasLink(asn, p) {
					t.AddLink(asn, p, RelProvider, TransitLink, regionHubFacs[region][0])
				}
			}
			eyeballsByCountry[c.Code] = append(eyeballsByCountry[c.Code], asn)
			allEyeballs = append(allEyeballs, asn)
		}
	}

	// --- Hypergiants and clouds ---------------------------------------
	hgNames := []string{"Vortex", "FaceSpace", "MegaCDN", "StreamFlix", "ShopGiant", "ClipShare", "EdgeWave", "MetaCast"}
	var hypergiants []ASN
	for i := 0; i < cfg.NHypergiants; i++ {
		asn := asnHypergiantBase + ASN(i)
		name := fmt.Sprintf("Hypergiant-%d", i+1)
		if i < len(hgNames) {
			name = hgNames[i]
		}
		a := &AS{
			ASN:     asn,
			Name:    name,
			Type:    Hypergiant,
			Country: "ZZ",
			Region:  geo.Regions()[i%len(geo.Regions())],
			Policy:  PolicySelective,
		}
		for _, r := range geo.Regions() {
			a.Facilities = append(a.Facilities, regionHubFacs[r]...)
		}
		// Hypergiants are also present in most large countries' facilities.
		for _, c := range countries {
			if c.InternetUsersM > 20 || rng.Bool(0.4) {
				a.Facilities = appendUniqueFacility(a.Facilities, countryFac[c.Code])
			}
		}
		a.Prefixes = alloc.Alloc(8 + rng.Intn(8))
		homes = append(homes, prefixHome{a, geo.RegionHub(a.Region)})
		t.AddAS(a)
		hypergiants = append(hypergiants, asn)
		for _, t1 := range tier1s {
			t.AddLink(asn, t1, RelPeer, PrivatePeering, regionHubFacs[geo.Regions()[0]][0])
		}
		for _, tr := range allTransit {
			if rng.Bool(0.6) {
				shared := t.SharedFacilities(asn, tr)
				if len(shared) > 0 {
					t.AddLink(asn, tr, RelPeer, PrivatePeering, shared[0])
				}
			}
		}
	}
	var clouds []ASN
	cloudNames := []string{"Nimbus", "Stratus", "Cumulus"}
	for i := 0; i < cfg.NClouds; i++ {
		asn := asnCloudBase + ASN(i)
		name := fmt.Sprintf("Cloud-%d", i+1)
		if i < len(cloudNames) {
			name = cloudNames[i]
		}
		a := &AS{
			ASN:     asn,
			Name:    name,
			Type:    Cloud,
			Country: "ZZ",
			Region:  geo.Regions()[i%len(geo.Regions())],
			Policy:  PolicyOpen,
		}
		for _, r := range geo.Regions() {
			a.Facilities = append(a.Facilities, regionHubFacs[r]...)
		}
		a.Prefixes = alloc.Alloc(6 + rng.Intn(6))
		homes = append(homes, prefixHome{a, geo.RegionHub(a.Region)})
		t.AddAS(a)
		clouds = append(clouds, asn)
		for _, t1 := range tier1s {
			t.AddLink(asn, t1, RelPeer, PrivatePeering, regionHubFacs[geo.Regions()[0]][0])
		}
		for _, tr := range allTransit {
			if rng.Bool(0.45) {
				shared := t.SharedFacilities(asn, tr)
				if len(shared) > 0 {
					t.AddLink(asn, tr, RelPeer, PrivatePeering, shared[0])
				}
			}
		}
	}

	// Giants peer with each other at the major hubs (in the real
	// Internet, hypergiants and clouds interconnect directly; without
	// this, peer-route export rules would leave them mutually
	// unreachable, which never happens in practice).
	giantsAll := append(append([]ASN{}, hypergiants...), clouds...)
	for i := 0; i < len(giantsAll); i++ {
		for j := i + 1; j < len(giantsAll); j++ {
			if !t.HasLink(giantsAll[i], giantsAll[j]) {
				t.AddLink(giantsAll[i], giantsAll[j], RelPeer, PrivatePeering,
					regionHubFacs[geo.Regions()[0]][0])
			}
		}
	}

	// Private peering between hypergiants/clouds and large eyeballs.
	// This is the Internet flattening the paper leans on: most user
	// traffic takes these direct (publicly invisible) links.
	giants := append(append([]ASN{}, hypergiants...), clouds...)
	for _, g := range giants {
		for _, e := range allEyeballs {
			ea := t.ASes[e]
			// Target eyeballs large enough to justify a PNI: big
			// ISPs almost always get one, mid-size sometimes, small
			// ones reach the giants over transit.
			p := 0.0
			switch {
			case ea.SubscribersK >= 3000:
				p = cfg.HypergiantEyeballPeering
			case ea.SubscribersK >= 800:
				p = cfg.HypergiantEyeballPeering * 0.35
			}
			if p > 0 && rng.Bool(p) && !t.HasLink(g, e) {
				fac := countryFac[ea.Country]
				t.AddLink(g, e, RelPeer, PrivatePeering, fac)
			}
		}
	}

	// --- Enterprises and academic stubs -------------------------------
	nextEnterprise := asnEnterpriseBase
	nextAcademic := asnAcademicBase
	var allAcademics []ASN
	for _, c := range countries {
		nEnt := int(math.Max(1, math.Round(math.Pow(c.InternetUsersM, 0.62)*1.3*cfg.Scale)))
		for i := 0; i < nEnt; i++ {
			asn := nextEnterprise
			nextEnterprise++
			a := &AS{
				ASN:     asn,
				Name:    fmt.Sprintf("%s-Corp-%d", c.Code, i+1),
				Type:    Enterprise,
				Country: c.Code,
				Region:  c.Region,
				Policy:  PolicyRestrictive,
			}
			a.Facilities = []FacilityID{countryFac[c.Code]}
			a.Prefixes = alloc.Alloc(1)
			homes = append(homes, prefixHome{a, c.Capital})
			t.AddAS(a)
			// Customer of a regional transit or a large eyeball.
			if rng.Bool(0.75) || len(eyeballsByCountry[c.Code]) == 0 {
				ts := transitByRegion[c.Region]
				if len(ts) == 0 {
					ts = allTransit
				}
				t.AddLink(asn, ts[rng.Intn(len(ts))], RelProvider, TransitLink, countryFac[c.Code])
			} else {
				es := eyeballsByCountry[c.Code]
				t.AddLink(asn, es[rng.Intn(min(3, len(es)))], RelProvider, TransitLink, countryFac[c.Code])
			}
		}
		nAcad := 1
		if c.InternetUsersM > 60 {
			nAcad = 2
		}
		for i := 0; i < nAcad; i++ {
			asn := nextAcademic
			nextAcademic++
			a := &AS{
				ASN:     asn,
				Name:    fmt.Sprintf("%s-EDU-%d", c.Code, i+1),
				Type:    Academic,
				Country: c.Code,
				Region:  c.Region,
				Policy:  PolicyOpen,
			}
			a.Facilities = []FacilityID{countryFac[c.Code]}
			a.Prefixes = alloc.Alloc(1 + rng.Intn(2))
			homes = append(homes, prefixHome{a, c.Capital})
			t.AddAS(a)
			ts := transitByRegion[c.Region]
			if len(ts) == 0 {
				ts = allTransit
			}
			t.AddLink(asn, ts[rng.Intn(len(ts))], RelProvider, TransitLink, countryFac[c.Code])
			allAcademics = append(allAcademics, asn)
		}
	}

	// --- Root DNS operators ---------------------------------------------
	// Up to 13 academic networks operate root letters. Real root
	// operators host anycast instances at IXPs around the planet and
	// peer extremely widely; those peerings rarely show up in public
	// topologies. This is what makes Atlas->root paths hard to predict.
	nRoots := min(13, len(allAcademics))
	for i := 0; i < nRoots; i++ {
		// Spread across countries: academics were appended per country.
		op := allAcademics[(i*7)%len(allAcademics)]
		a := t.ASes[op]
		if a.RootOperator {
			continue
		}
		a.RootOperator = true
		a.Policy = PolicyOpen
		for _, e := range allEyeballs {
			if rng.Bool(0.6) && !t.HasLink(op, e) {
				fac := countryFac[t.ASes[e].Country]
				a.Facilities = appendUniqueFacility(a.Facilities, fac)
				t.AddLink(op, e, RelPeer, IXPPeering, fac)
			}
		}
		for _, tr := range allTransit {
			if rng.Bool(0.5) && !t.HasLink(op, tr) {
				fac := regionHubFacs[t.ASes[tr].Region][0]
				a.Facilities = appendUniqueFacility(a.Facilities, fac)
				t.AddLink(op, tr, RelPeer, IXPPeering, fac)
			}
		}
	}
	for i := 0; i < nRoots; i++ {
		op := allAcademics[(i*7)%len(allAcademics)]
		if !t.ASes[op].RootOperator {
			continue
		}
		for _, ac := range allAcademics {
			if ac != op && rng.Bool(0.5) && !t.HasLink(op, ac) {
				fac := countryFac[t.ASes[ac].Country]
				t.ASes[op].Facilities = appendUniqueFacility(t.ASes[op].Facilities, fac)
				t.AddLink(op, ac, RelPeer, IXPPeering, fac)
			}
		}
	}

	// --- IXPs ----------------------------------------------------------
	// One IXP per region hub plus one per very large country.
	addIXP := func(name string, fac FacilityID, scopeASes []ASN, memberProb map[ASType]float64) {
		ixp := IXP{ID: IXPID(len(t.IXPs)), Name: name, Facility: fac}
		for _, asn := range scopeASes {
			p, ok := memberProb[t.ASes[asn].Type]
			if !ok {
				continue
			}
			if rng.Bool(p) {
				ixp.Members = append(ixp.Members, asn)
				t.ASes[asn].Facilities = appendUniqueFacility(t.ASes[asn].Facilities, fac)
			}
		}
		slices.Sort(ixp.Members)
		t.IXPs = append(t.IXPs, ixp)
		// Public peering on the fabric: giants peer openly with
		// eyeballs; some eyeball-eyeball and transit-eyeball peering.
		for i := 0; i < len(ixp.Members); i++ {
			for j := i + 1; j < len(ixp.Members); j++ {
				a, b := ixp.Members[i], ixp.Members[j]
				if t.HasLink(a, b) {
					continue
				}
				ta, tb := t.ASes[a].Type, t.ASes[b].Type
				p := 0.0
				switch {
				case isGiant(ta) && tb == Eyeball, isGiant(tb) && ta == Eyeball:
					p = 0.7
				case isGiant(ta) && tb == Enterprise, isGiant(tb) && ta == Enterprise:
					p = 0.25
				case ta == Eyeball && tb == Eyeball:
					p = 0.18
				case (ta == Transit && tb == Eyeball) || (tb == Transit && ta == Eyeball):
					p = 0.08
				case ta == Academic || tb == Academic:
					p = 0.3
				}
				if p > 0 && rng.Bool(p) {
					t.AddLink(a, b, RelPeer, IXPPeering, fac)
				}
			}
		}
	}
	memberProb := map[ASType]float64{
		Eyeball: 0.65, Transit: 0.5, Hypergiant: 0.95, Cloud: 0.9,
		Enterprise: 0.08, Academic: 0.5,
	}
	asns := order.Keys(t.ASes) // every AS exists by now; IXPs only add links
	for _, r := range geo.Regions() {
		cs := regionCountries[r]
		if len(cs) == 0 {
			continue
		}
		var scope []ASN
		for _, asn := range asns {
			a := t.ASes[asn]
			if a.Region == r || a.Country == "ZZ" {
				scope = append(scope, asn)
			}
		}
		addIXP(fmt.Sprintf("%s-IX", geo.RegionHub(r).Name), regionHubFacs[r][1], scope, memberProb)
	}
	for _, c := range countries {
		if c.InternetUsersM < 55 {
			continue
		}
		var scope []ASN
		for _, asn := range asns {
			a := t.ASes[asn]
			if a.Country == c.Code || a.Country == "ZZ" {
				scope = append(scope, asn)
			}
		}
		addIXP(fmt.Sprintf("%s-IX", c.Capital.Name), countryFac[c.Code], scope, memberProb)
	}

	// Facility lists accumulated from several phases; deduplicate while
	// preserving order (country facilities can coincide with region-hub
	// facilities for hub countries).
	for _, a := range t.ASes {
		seen := map[FacilityID]bool{}
		uniq := a.Facilities[:0]
		for _, f := range a.Facilities {
			if !seen[f] {
				seen[f] = true
				uniq = append(uniq, f)
			}
		}
		a.Facilities = uniq
	}
	registerPrefixes(t, homes)
	t.Allocator = alloc
	t.Freeze()
	return t
}

// prefixHome is the city one generated AS's prefixes are in.
type prefixHome struct {
	as   *AS
	city geo.City
}

// registerPrefixes records ownership and city for every generated AS's
// prefixes, once all are allocated: the two maps are made at their final
// size instead of grown through a dozen rehashes.
func registerPrefixes(t *Topology, homes []prefixHome) {
	n := 0
	for _, h := range homes {
		n += len(h.as.Prefixes)
	}
	t.PrefixOwner = make(map[PrefixID]ASN, n)
	t.PrefixCity = make(map[PrefixID]geo.City, n)
	for _, h := range homes {
		for _, p := range h.as.Prefixes {
			t.PrefixOwner[p] = h.as.ASN
			t.PrefixCity[p] = h.city
		}
	}
}

func appendUniqueFacility(fs []FacilityID, f FacilityID) []FacilityID {
	for _, x := range fs {
		if x == f {
			return fs
		}
	}
	return append(fs, f)
}

func countryWeights(cs []geo.Country) []float64 {
	w := make([]float64, len(cs))
	for i, c := range cs {
		w[i] = c.InternetUsersM
	}
	return w
}

func isGiant(t ASType) bool { return t == Hypergiant || t == Cloud }

// PrimaryCity returns a representative location for an AS: its home
// country's capital, or its first facility's city for global networks.
func (t *Topology) PrimaryCity(asn ASN) geo.City {
	a := t.ASes[asn]
	if a == nil {
		return geo.City{}
	}
	if a.Country != "ZZ" {
		if c, err := geo.CountryByCode(a.Country); err == nil {
			return c.Capital
		}
	}
	if len(a.Facilities) > 0 {
		return t.Facility(a.Facilities[0]).City
	}
	return geo.City{}
}
