package experiments

// §3.2, the services component: ECS adoption (E7), cache efficacy (E12),
// server geolocation (E14) and custom-URL optimality (E22).

import (
	"fmt"
	"math"

	"itmap/internal/cachesim"
	"itmap/internal/geo"
	"itmap/internal/latency"
	"itmap/internal/measure/geoloc"
	"itmap/internal/order"
	"itmap/internal/randx"
	"itmap/internal/services"
	"itmap/internal/topology"
)

// RunE7 reproduces the ECS-adoption accounting of §3.2.3.
func (e *Env) RunE7() *Result {
	r := &Result{ID: "E7", Title: "ECS adoption among top services"}
	w := e.W
	mx := e.Matrix()
	ecsTop, top20Bytes, ecsTop20Bytes, ecsBytes := 0, 0.0, 0.0, 0.0
	for _, svc := range w.Cat.Services {
		b := mx.PerService[svc.ID]
		if svc.ECS {
			ecsBytes += b
		}
		if svc.Rank <= 20 {
			top20Bytes += b
			if svc.ECS {
				ecsTop++
				ecsTop20Bytes += b
			}
		}
	}
	r.Values = append(r.Values, Value{
		Name:     "top-20 services supporting ECS",
		Paper:    "15 of 20",
		Measured: fmt.Sprintf("%d of 20", ecsTop),
		Pass:     ecsTop >= 12 && ecsTop <= 16,
	})
	shareOfTop20 := ecsTop20Bytes / top20Bytes
	r.Values = append(r.Values, Value{
		Name:     "ECS top-20 share of top-20 traffic",
		Paper:    "91%",
		Measured: pct(shareOfTop20),
		Pass:     shareOfTop20 > 0.75,
	})
	shareOfAll := ecsTop20Bytes / mx.TotalBytes
	r.Values = append(r.Values, Value{
		Name:     "ECS top-20 share of all traffic",
		Paper:    "35% (of the whole Internet)",
		Measured: pct(shareOfAll),
		Pass:     shareOfAll > 0.25,
	})
	r.Notes = "the catalog holds 60 services vs the Internet's millions, so overall shares run higher than the paper's 35%; the within-top-20 ratio is the comparable number"
	_ = ecsBytes
	return r
}

// RunE12 implements the §3.2.3 community-cache proposal: measure off-net
// cache hit rates under normal operation and during flash events.
func (e *Env) RunE12() *Result {
	r := &Result{ID: "E12", Title: "Edge-cache efficacy: normal operation vs flash events"}
	rng := randx.New(e.W.Cfg.Seed + 606)
	const catalog = 20000
	base := cachesim.NewZipfWorkload(catalog, 0.9)

	// Capacity sweep under normal operation, cross-checked against the
	// Che approximation (the simulator is not free to be wrong).
	s := Series{Name: "hit rate vs cache capacity (simulated | Che)"}
	maxDev := 0.0
	for _, capacity := range []int{200, 1000, 5000} {
		sim := cachesim.MeasureHitRate(cachesim.NewLRU(capacity), base, rng, 60000, 200000)
		che := cachesim.CheHitRate(capacity, base.Weights())
		if d := math.Abs(sim - che); d > maxDev {
			maxDev = d
		}
		s.Labels = append(s.Labels, fmt.Sprintf("cap %d sim", capacity))
		s.Values = append(s.Values, sim)
		s.Labels = append(s.Labels, fmt.Sprintf("cap %d che", capacity))
		s.Values = append(s.Values, che)
	}
	r.Series = append(r.Series, s)
	r.Values = append(r.Values, Value{
		Name:     "LRU model agrees with Che approximation",
		Paper:    "n/a (model validation)",
		Measured: fmt.Sprintf("max deviation %.3f", maxDev),
		Pass:     maxDev < 0.03,
	})

	normal := cachesim.MeasureHitRate(cachesim.NewLRU(1000), base, rng, 60000, 200000)
	flash := &cachesim.FlashWorkload{Base: base, HotKey: catalog + 1, HotShare: 0.5}
	during := cachesim.MeasureHitRate(cachesim.NewLRU(1000), flash, rng, 60000, 200000)
	r.Values = append(r.Values, Value{
		Name:     "hit rate normal vs flash event",
		Paper:    "proposed: measure hit rate under normal operation and during flash events",
		Measured: fmt.Sprintf("%s normal → %s during flash", pct(normal), pct(during)),
		Pass:     during > normal,
	})
	return r
}

// RunE14 implements §3.2.3 approach 3: "many use cases need to know the
// city/facility of serving infrastructure. Starting points may be
// client-centric geolocation and constraint-based localization from
// in-facility vantage points."
func (e *Env) RunE14() *Result {
	r := &Result{ID: "E14", Title: "Constraint-based geolocation of serving infrastructure"}
	w := e.W
	lm := latency.New(w.Top, w.Paths, w.Cfg.Seed+707)
	atlas := geoloc.AtlasVPSet(w.Top)
	owner := w.Cat.ReferenceCDN

	// Targets: the reference CDN's serving prefixes (found via TLS scans
	// in practice; here straight from the scan).
	targets := map[topology.PrefixID]geo.City{}
	for _, srv := range e.Scan().ByOwner[owner] {
		targets[srv.Prefix] = srv.City
	}

	// In-facility VPs: another giant's on-net sites.
	var other topology.ASN
	for _, hg := range w.Top.ASesOfType(topology.Hypergiant) {
		if hg != owner {
			other = hg
			break
		}
	}
	facTargets := map[topology.PrefixID]geo.City{}
	if other != 0 {
		for _, s := range w.Cat.Deployments[other].OnNetSites() {
			facTargets[s.Prefix] = s.City
		}
	}
	facility := geoloc.FacilityVPSet(w.Top, facTargets)

	var atlasErrs, combinedErrs []float64
	combined := append(append([]geoloc.VantagePoint{}, atlas...), facility...)
	for _, p := range order.Keys(targets) {
		city := targets[p]
		if est, ok := geoloc.Localize(lm, atlas, p, 5); ok {
			atlasErrs = append(atlasErrs, est.ErrorKm(city.Coord))
		}
		if est, ok := geoloc.Localize(lm, combined, p, 5); ok {
			combinedErrs = append(combinedErrs, est.ErrorKm(city.Coord))
		}
	}
	a := geoloc.Summarize(atlasErrs)
	c := geoloc.Summarize(combinedErrs)
	r.Values = append(r.Values, Value{
		Name:     "median localization error, Atlas VPs",
		Paper:    "proposed: client-centric geolocation",
		Measured: fmt.Sprintf("%.0f km (p90 %.0f km) over %d servers", a.MedianKm, a.P90Km, a.Targets),
		Pass:     a.Targets > 0 && a.MedianKm < 2500,
	})
	r.Values = append(r.Values, Value{
		Name:     "median error with in-facility VPs added",
		Paper:    "proposed: constraint-based localization from in-facility vantage points",
		Measured: fmt.Sprintf("%.0f km (p90 %.0f km)", c.MedianKm, c.P90Km),
		Pass:     c.Targets > 0 && c.MedianKm <= a.MedianKm,
	})
	return r
}

// RunE22 validates the §3.2.3 intuition "the vast majority of bytes served
// from sites reached via custom URLs are likely from the optimal site" the
// way the paper proposes — "via instrumentation from available vantage
// points and networks" — and checks that the biased vantage sample
// estimates the population truth.
func (e *Env) RunE22() *Result {
	r := &Result{ID: "E22", Title: "Custom-URL redirection optimality via vantage instrumentation"}
	w := e.W
	mx := e.Matrix()

	isOptimal := func(clientAS topology.ASN, svc *services.Service, site *services.Site) bool {
		if site.HostAS == clientAS {
			return true // in-network cache: optimal by definition
		}
		at := w.Top.PrimaryCity(clientAS).Coord
		best := w.Cat.NearestSiteTo(svc.Owner, at)
		return best != nil && best.Prefix == site.Prefix
	}

	// Population truth: byte-weighted optimality over all custom-URL
	// flows.
	var optBytes, totBytes float64
	for _, f := range mx.Flows {
		svc := w.Cat.Services[f.Svc]
		if svc.Kind != services.CustomURL {
			continue
		}
		totBytes += f.Bytes
		if isOptimal(f.ClientAS, svc, f.Site) {
			optBytes += f.Bytes
		}
	}
	truth := 0.0
	if totBytes > 0 {
		truth = optBytes / totBytes
	}

	// Vantage estimate: instrument players in academic + volunteer
	// eyeball networks; each vantage AS samples its own assignment.
	var vps []topology.ASN
	vps = append(vps, w.Top.ASesOfType(topology.Academic)...)
	for i, asn := range w.Top.ASesOfType(topology.Eyeball) {
		if i%4 == 0 {
			vps = append(vps, asn)
		}
	}
	var optW, totW float64
	for _, vp := range vps {
		for _, svc := range w.Cat.Services {
			if svc.Kind != services.CustomURL {
				continue
			}
			for _, ss := range w.Traffic.Assign(svc, vp) {
				totW += ss.Share
				if isOptimal(vp, svc, ss.Site) {
					optW += ss.Share
				}
			}
		}
	}
	estimate := 0.0
	if totW > 0 {
		estimate = optW / totW
	}

	r.Values = append(r.Values, Value{
		Name:     "custom-URL bytes served from the optimal site (truth)",
		Paper:    "'the vast majority of bytes ... are likely from the optimal site'",
		Measured: pct(truth),
		Pass:     truth > 0.8 && truth < 0.999,
	})
	r.Values = append(r.Values, Value{
		Name:     "vantage-instrumented estimate of the same",
		Paper:    "'validating this intuition via instrumentation from available vantage points'",
		Measured: fmt.Sprintf("%s from %d vantage networks (truth %s)", pct(estimate), len(vps), pct(truth)),
		Pass:     estimate > 0.8 && math.Abs(estimate-truth) < 0.15,
	})
	return r
}
