package experiments

import (
	"fmt"
	"sort"

	"itmap/internal/toplist"
	"itmap/internal/topology"
	"itmap/internal/volreports"
)

// RunE19 quantifies the related-work critique of top lists ([54] and §1):
// they churn day to day, and rank position is a poor stand-in for traffic
// volume — which is why the map weighs by measured activity instead.
func (e *Env) RunE19() *Result {
	r := &Result{ID: "E19", Title: "Top lists: churn and rank-as-traffic-proxy error"}
	tm := e.W.Traffic
	// Average churn over several consecutive day pairs: a single pair of
	// 60-service lists quantizes churn in steps of 1/k.
	const pairs = 4
	var panelDeep, panelTop, resolverDeep float64
	for day := 1; day <= pairs; day++ {
		p1 := toplist.Generate(tm, toplist.PanelProvider, day, 0)
		p2 := toplist.Generate(tm, toplist.PanelProvider, day+1, 0)
		q1 := toplist.Generate(tm, toplist.ResolverProvider, day, 0)
		q2 := toplist.Generate(tm, toplist.ResolverProvider, day+1, 0)
		panelDeep += toplist.TopKChurn(p1, p2, 30) / pairs
		panelTop += toplist.TopKChurn(p1, p2, 5) / pairs
		resolverDeep += toplist.TopKChurn(q1, q2, 30) / pairs
	}
	r1 := toplist.Generate(tm, toplist.ResolverProvider, 1, 0)
	r.Values = append(r.Values, Value{
		Name:     "day-over-day churn grows with list depth",
		Paper:    "[54]: top lists are unstable, especially deeper ranks",
		Measured: fmt.Sprintf("panel churn top-5 %s vs top-30 %s; resolver top-30 %s (mean of %d day pairs)", pct(panelTop), pct(panelDeep), pct(resolverDeep), pairs),
		Pass:     panelDeep >= panelTop-0.05 && resolverDeep <= panelDeep+0.05,
	})

	truth := toplist.TrueByteShares(tm, e.Matrix())
	rankErr := toplist.ShareError(r1.WeightBy(), truth)
	r.Values = append(r.Values, Value{
		Name:     "1/rank weighting vs true traffic shares (TV distance)",
		Paper:    "lists 'do not provide a fine-grained understanding' [54]",
		Measured: pct(rankErr),
		Pass:     rankErr > 0.1,
	})
	return r
}

// RunE20 implements the §4 call to action: operators contribute aggregated
// volume reports, and a handful of reports calibrates the map's relative
// activity into absolute volumes for everyone.
func (e *Env) RunE20() *Result {
	r := &Result{ID: "E20", Title: "Absolute calibration from contributed volume reports"}
	mx := e.Matrix()
	m := e.Map()

	// Contributors: the largest client networks.
	type row struct {
		asn topology.ASN
		b   float64
	}
	var rows []row
	for asn, b := range mx.ClientASBytes {
		if m.ASActivity[asn] > 0 {
			rows = append(rows, row{asn, b})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].b != rows[j].b {
			return rows[i].b > rows[j].b
		}
		return rows[i].asn < rows[j].asn
	})
	evalWith := func(n int) volreports.Eval {
		var reports []volreports.Report
		for i := 0; i < n && i < len(rows); i++ {
			reports = append(reports, volreports.Contribute(mx, rows[i].asn, 0, 0.15, e.W.Cfg.Seed))
		}
		c := volreports.Calibrate(m.ASActivity, reports)
		return volreports.Evaluate(c, m.ASActivity, mx)
	}
	with3 := evalWith(3)
	with10 := evalWith(10)
	r.Values = append(r.Values, Value{
		Name:     "median absolute error with 3 contributing networks",
		Paper:    "§4: 'aggregated volume reports of networks'",
		Measured: fmt.Sprintf("%s over %d ASes", pct(with3.MedianAPE), with3.Covered),
		Pass:     with3.Covered > 50 && with3.MedianAPE < 1.0,
	})
	r.Values = append(r.Values, Value{
		Name:     "with 10 contributors",
		Paper:    "more contributions, better calibration",
		Measured: pct(with10.MedianAPE),
		Pass:     with10.MedianAPE <= with3.MedianAPE+0.1,
	})
	return r
}
