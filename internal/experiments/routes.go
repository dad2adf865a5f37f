package experiments

// §3.3, the routes component: path prediction on public vs augmented
// topologies (E4) and peering-link recommendation (E8).

import (
	"fmt"

	"itmap/internal/bgp"
	"itmap/internal/measure/tracer"
	"itmap/internal/peering"
	"itmap/internal/randx"
	"itmap/internal/topology"
)

type pathPredictionStats struct {
	publicCorrect         float64 // exact-path prediction rate on public view
	publicNoRoute         float64
	augmentedCorrect      float64
	giantInvisible        float64
	augmentedGiantVisible float64
	pairs                 int
}

// pathPrediction quantifies §3.3.1/§3.3.2: predicting Atlas→root-host
// paths on the public topology, then after adding cloud-VM measurements.
func (e *Env) pathPrediction() pathPredictionStats {
	w := e.W
	obs := e.Observed()
	vis := bgp.MeasureVisibility(w.Top, e.ObservedLinks())

	// Root DNS hosts: the topology's root-operator networks (academic
	// ASes with anycast instances at IXPs worldwide, like the real
	// letters' operators).
	var hosts []topology.ASN
	for _, asn := range w.Top.ASNs() {
		if w.Top.ASes[asn].RootOperator {
			hosts = append(hosts, asn)
		}
	}
	hgs := w.Top.ASesOfType(topology.Hypergiant)
	if len(hosts) == 0 {
		hosts = append(hosts, hgs[0])
	}

	vps := tracer.AtlasVPs(w.Top, randx.New(w.Cfg.Seed+303))

	// Augmented topology: public links plus campaigns from cloud VMs.
	giants := append(append([]topology.ASN{}, w.Top.ASesOfType(topology.Cloud)...), hgs...)
	cloudLinks := tracer.CloudCampaign(w.Paths, giants, w.Top.ASNs())
	augLinks := tracer.Union(e.ObservedLinks(), cloudLinks)
	augmented := w.Top.SubgraphWithLinks(augLinks)

	var st pathPredictionStats
	st.giantInvisible = 1 - vis.FracGiantPeeringsVisible()
	st.augmentedGiantVisible = bgp.MeasureVisibility(w.Top, augLinks).FracGiantPeeringsVisible()
	var okPub, noRoute, okAug, total float64
	for _, host := range hosts {
		pubRIB := bgp.ComputeRIB(obs, host)
		augRIB := bgp.ComputeRIB(augmented, host)
		truthRIB := w.Paths.RIBFor(host)
		for _, vp := range vps {
			truth := truthRIB.PathFrom(vp.AS)
			if truth == nil {
				continue
			}
			total++
			pub := pubRIB.PathFrom(vp.AS)
			if pub == nil {
				noRoute++
			} else if tracer.PathsEqual(pub, truth) {
				okPub++
			}
			if aug := augRIB.PathFrom(vp.AS); tracer.PathsEqual(aug, truth) {
				okAug++
			}
		}
	}
	if total > 0 {
		st.publicCorrect = okPub / total
		st.publicNoRoute = noRoute / total
		st.augmentedCorrect = okAug / total
		st.pairs = int(total)
	}
	return st
}

// RunE4 reproduces the path-prediction gap: public topologies miss most
// giant peerings, so most VP→root paths cannot be predicted; cloud
// campaigns close much of the gap.
func (e *Env) RunE4() *Result {
	r := &Result{ID: "E4", Title: "Path prediction on public vs augmented topologies"}
	st := e.pathPrediction()
	r.Values = append(r.Values, Value{
		Name:     "giant peering links invisible to collectors",
		Paper:    ">90% of IXP/hypergiant peerings [4,48]",
		Measured: pct(st.giantInvisible),
		Pass:     st.giantInvisible > 0.7,
	})
	r.Values = append(r.Values, Value{
		Name:     "VP→root paths predicted wrong or unroutable (public)",
		Paper:    ">50% could not be predicted",
		Measured: fmt.Sprintf("%s (of %d pairs; %s had no route)", pct(1-st.publicCorrect), st.pairs, pct(st.publicNoRoute)),
		Pass:     1-st.publicCorrect > 0.3,
	})
	r.Values = append(r.Values, Value{
		Name:  "giant peerings visible after cloud-VM campaigns",
		Paper: "cloud VPs uncover most cloud peerings [7]",
		Measured: fmt.Sprintf("%s visible (vs %s from collectors); prediction %s→%s",
			pct(st.augmentedGiantVisible), pct(1-st.giantInvisible),
			pct(st.publicCorrect), pct(st.augmentedCorrect)),
		Pass: st.augmentedGiantVisible > 0.85,
	})
	return r
}

// RunE8 reproduces the §3.3.3 feasibility claim: a recommender over public
// peering profiles predicts hidden links far better than chance.
func (e *Env) RunE8() *Result {
	r := &Result{ID: "E8", Title: "Peering-link prediction as a recommendation system"}
	w := e.W
	reg := peering.BuildRegistry(w.Top, e.APNIC())
	rec := peering.NewRecommender(w.Top, reg, e.ObservedLinks())
	cands := rec.Recommend(0)
	ev50 := peering.Evaluate(w.Top, e.ObservedLinks(), cands, 50)
	kBig := len(cands) / 10
	evBig := peering.Evaluate(w.Top, e.ObservedLinks(), cands, kBig)
	randomPrec := 0.0
	if len(cands) > 0 {
		randomPrec = float64(ev50.HiddenLinks) / float64(len(cands))
	}
	r.Values = append(r.Values, Value{
		Name:     "precision@50 vs random",
		Paper:    "n/a (proposed direction)",
		Measured: fmt.Sprintf("%.2f vs %.2f random (%d hidden links, %d candidates)", ev50.PrecisionK, randomPrec, ev50.HiddenLinks, len(cands)),
		Pass:     ev50.PrecisionK > 2*randomPrec,
	})
	// Recall lift: the top decile of recommendations must capture far
	// more hidden links than a random decile would.
	randomRecall := float64(kBig) / float64(max(len(cands), 1))
	r.Values = append(r.Values, Value{
		Name:     fmt.Sprintf("recall@top-decile (%d) vs random", kBig),
		Paper:    "n/a (proposed direction)",
		Measured: fmt.Sprintf("%s vs %s random", pct(evBig.RecallK), pct(randomRecall)),
		Pass:     evBig.RecallK > 1.5*randomRecall,
	})
	return r
}
