package experiments

// E14 and E15 continue the extension series: §3.2.3 approach 3 (fine-grained
// server geolocation) and the related-work traffic-matrix-completion line
// [30, 31] driven by the map's own marginals.

import (
	"fmt"

	"itmap/internal/geo"
	"itmap/internal/gravity"
	"itmap/internal/latency"
	"itmap/internal/measure/geoloc"
	"itmap/internal/order"
	"itmap/internal/topology"
)

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

// RunE15 drives traffic-matrix completion [30, 31] with the map's own
// marginals: per-client activity estimates and per-owner footprint volumes.
func (e *Env) RunE15() *Result {
	r := &Result{ID: "E15", Title: "Traffic-matrix completion from the map's marginals"}
	w := e.W
	mx := e.Matrix()
	m := e.Map()

	// Ground-truth pairwise matrix at (client AS, owner AS) grain.
	truth := map[gravity.Pair]float64{}
	trueRows := map[topology.ASN]float64{}
	trueCols := map[topology.ASN]float64{}
	for _, f := range mx.Flows {
		owner := w.Cat.Services[f.Svc].Owner
		truth[gravity.Pair{Client: f.ClientAS, Owner: owner}] += f.Bytes
		trueRows[f.ClientAS] += f.Bytes
		trueCols[owner] += f.Bytes
	}

	// Upper bound: gravity from true marginals.
	oracle := gravity.Evaluate(gravity.Complete(trueRows, trueCols), truth)

	// The map's version: client marginals from measured activity
	// (rescaled to bytes), owner marginals from ground-truth service
	// volumes' published rank shares (the map knows footprints and
	// popularity ranks; absolute volume calibration uses the catalog's
	// Zipf law).
	mapRows := map[topology.ASN]float64{}
	actTotal := order.SumValues(m.ASActivity)
	bytesTotal := order.SumValues(trueRows)
	for asn, act := range m.ASActivity {
		mapRows[asn] = act / actTotal * bytesTotal
	}
	mapCols := map[topology.ASN]float64{}
	for _, svc := range w.Cat.Services {
		mapCols[svc.Owner] += w.Cat.Popularity.Weight(svc.Rank) * svc.BytesPerQuery
	}
	mapEv := gravity.Evaluate(gravity.Complete(mapRows, mapCols), truth)

	r.Values = append(r.Values, Value{
		Name:     "gravity from true marginals (oracle)",
		Paper:    "traffic matrices are completable [30,31]",
		Measured: fmt.Sprintf("rank corr %.2f, weighted MAPE %s", oracle.RankCorr, pct(oracle.WeightedMAPE)),
		Pass:     oracle.RankCorr > 0.8,
	})
	r.Values = append(r.Values, Value{
		Name:     "gravity from the map's measured marginals",
		Paper:    "the ITM supplies the marginals",
		Measured: fmt.Sprintf("rank corr %.2f, weighted MAPE %s (%d cells)", mapEv.RankCorr, pct(mapEv.WeightedMAPE), mapEv.Cells),
		Pass:     mapEv.RankCorr > 0.6,
	})
	return r
}
