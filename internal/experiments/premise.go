package experiments

// §1–§2, the premise and its use cases: traffic concentration (E1),
// query-weighted path lengths (E2), anycast optimality (E3), the
// traceroute-based traffic-estimation baseline (E11) and outage reroutes
// (E17).

import (
	"fmt"

	"itmap/internal/bgp"
	"itmap/internal/measure/catchment"
	"itmap/internal/measure/tracer"
	"itmap/internal/measure/trafest"
	"itmap/internal/randx"
	"itmap/internal/services"
	"itmap/internal/stats"
	"itmap/internal/topology"
)

// RunE1 reproduces the traffic-concentration premise: most traffic flows
// between a small number of content providers and user networks
// (Labovitz 2010; Gigis 2021's "responsible for 90%").
func (e *Env) RunE1() *Result {
	r := &Result{ID: "E1", Title: "Traffic concentration on a handful of providers"}
	mx := e.Matrix()
	top5 := mx.CumulativeTopShare(5)
	top10 := mx.CumulativeTopShare(10)
	giants := mx.CumulativeTopShare(len(e.W.Cat.Owners()))
	r.Values = append(r.Values, Value{
		Name:     "top-10 origin owners' traffic share",
		Paper:    "~90% from a few giants [25,40]",
		Measured: fmt.Sprintf("top5 %s, top10 %s, all giants %s", pct0(top5), pct0(top10), pct0(giants)),
		Pass:     top10 > 0.7 && giants < 0.99,
	})
	s := Series{Name: "cumulative owner traffic share"}
	for _, k := range []int{1, 2, 3, 5, 10, 20} {
		s.Labels = append(s.Labels, fmt.Sprintf("top-%d", k))
		s.Values = append(s.Values, mx.CumulativeTopShare(k))
	}
	r.Series = append(r.Series, s)
	return r
}

// RunE2 reproduces the §2.1 weighting contrast: in an academic topology
// almost no paths are short, yet most query volume to a hypergiant comes
// from ASes at most one hop away.
func (e *Env) RunE2() *Result {
	r := &Result{ID: "E2", Title: "Unweighted vs query-weighted path lengths"}
	w := e.W
	mx := e.Matrix()

	// Unweighted view: paths from academic vantage points (the iPlane/
	// PlanetLab analogue) to every AS, one count each.
	var unweighted stats.WeightedCDF
	for _, vp := range w.Top.ASesOfType(topology.Academic) {
		if w.Top.ASes[vp].RootOperator {
			continue // PlanetLab hosts were plain campus networks
		}
		for _, dst := range w.Top.ASNs() {
			if dst == vp {
				continue
			}
			if h := w.Paths.Hops(vp, dst); h >= 0 {
				unweighted.Add(float64(h), 1)
			}
		}
	}
	shortUnweighted := unweighted.FracAtMost(1)

	// Weighted view: query volume to the largest hypergiant by hops from
	// the client AS to its serving site's host.
	topOwner := mx.TopOwners()[0].ASN
	var weighted stats.WeightedCDF
	for _, f := range mx.Flows {
		svc := w.Cat.Services[f.Svc]
		if svc.Owner != topOwner || f.Hops < 0 {
			continue
		}
		weighted.Add(float64(f.Hops), f.Bytes/svc.BytesPerQuery)
	}
	shortWeighted := weighted.FracAtMost(1)

	r.Values = append(r.Values, Value{
		Name:     "paths ≤1 AS hop, unweighted academic view",
		Paper:    "2% of iPlane paths were two ASes long",
		Measured: pct(shortUnweighted),
		Pass:     shortUnweighted < 0.25,
	})
	r.Values = append(r.Values, Value{
		Name:     "queries from ASes ≤1 hop from the top hypergiant",
		Paper:    "73% of Google queries",
		Measured: pct(shortWeighted),
		Pass:     shortWeighted > 0.5 && shortWeighted > 2*shortUnweighted,
	})
	s := Series{Name: "CDF of AS-path hops"}
	for h := 0; h <= 4; h++ {
		s.Labels = append(s.Labels, fmt.Sprintf("unweighted ≤%d", h))
		s.Values = append(s.Values, unweighted.FracAtMost(float64(h)))
	}
	for h := 0; h <= 4; h++ {
		s.Labels = append(s.Labels, fmt.Sprintf("query-weighted ≤%d", h))
		s.Values = append(s.Values, weighted.FracAtMost(float64(h)))
	}
	r.Series = append(r.Series, s)
	return r
}

// RunE3 reproduces the anycast-in-context result (Koch 2021): few routes
// are optimal but most users are, and most users land near their closest
// site.
func (e *Env) RunE3() *Result {
	r := &Result{ID: "E3", Title: "Anycast catchment optimality (routes vs users)"}
	w := e.W
	var owner topology.ASN
	for _, s := range w.Cat.Services {
		if s.Kind == services.Anycast {
			owner = s.Owner
			break
		}
	}
	if owner == 0 {
		r.Values = append(r.Values, Value{Name: "anycast service present", Paper: "n/a", Measured: "none", Pass: false})
		return r
	}
	var clients []topology.ASN
	clients = append(clients, w.Top.ASesOfType(topology.Eyeball)...)
	clients = append(clients, w.Top.ASesOfType(topology.Enterprise)...)
	clients = append(clients, w.Top.ASesOfType(topology.Academic)...)
	m := catchment.Measure(w.Cat, w.Paths, owner, clients)
	an := catchment.Analyze(m, w.Cat, w.Top, w.Users)

	r.Values = append(r.Values, Value{
		Name:     "routes landing at the closest site",
		Paper:    "31% of routes",
		Measured: pct(an.RouteOptimalFrac),
		Pass:     an.RouteOptimalFrac < an.UserOptimalFrac,
	})
	r.Values = append(r.Values, Value{
		Name:     "users landing at the optimal site",
		Paper:    "60% of users",
		Measured: pct(an.UserOptimalFrac),
		Pass:     an.UserOptimalFrac > 0.5,
	})
	within := an.UserFracWithinKm(500)
	r.Values = append(r.Values, Value{
		Name:     "users directed within 500 km of closest site",
		Paper:    "80% of clients",
		Measured: pct(within),
		Pass:     within > 0.6,
	})
	s := Series{Name: "user-weighted catchment proximity CDF"}
	for _, km := range []float64{0, 100, 250, 500, 1000, 2500, 5000} {
		s.Labels = append(s.Labels, fmt.Sprintf("≤%.0f km", km))
		s.Values = append(s.Values, an.UserFracWithinKm(km))
	}
	r.Series = append(r.Series, s)
	return r
}

// RunE11 evaluates the paper's named baseline: estimating inter-domain
// traffic from traceroute crossings "does not apply to the vast majority of
// traffic on today's Internet that crosses private interconnects or flows
// from caches".
func (e *Env) RunE11() *Result {
	r := &Result{ID: "E11", Title: "Traceroute-based traffic estimation misses the modern Internet"}
	w := e.W
	vps := tracer.AtlasVPs(w.Top, randx.New(w.Cfg.Seed+505))
	var targets []topology.ASN
	targets = append(targets, w.Top.ASesOfType(topology.Hypergiant)...)
	targets = append(targets, w.Top.ASesOfType(topology.Cloud)...)
	targets = append(targets, w.Top.ASesOfType(topology.Tier1)...)
	est := trafest.EstimateLinkActivity(w.Paths, vps, targets)
	ev := trafest.Evaluate(w.Top, e.Matrix(), est)

	r.Values = append(r.Values, Value{
		Name:     "traffic served in-network (no inter-AS link at all)",
		Paper:    "flows from caches are invisible to the approach",
		Measured: pct(ev.OffNetShare),
		Pass:     ev.OffNetShare > 0.2,
	})
	r.Values = append(r.Values, Value{
		Name:     "link traffic on links no traceroute crossed",
		Paper:    "private interconnects are invisible",
		Measured: fmt.Sprintf("%s overall; %s of PNI traffic", pct(ev.TrafficOnUnseenLinks), pct(ev.PNITrafficUnseen)),
		Pass:     ev.PNITrafficUnseen > 0.1,
	})
	r.Values = append(r.Values, Value{
		Name:     "rank corr on links it does see",
		Paper:    "works for IXP links it samples [53]",
		Measured: fmt.Sprintf("Spearman %.2f over %d observed links", ev.RankCorrObservedLinks, est.Paths),
		Pass:     ev.RankCorrObservedLinks > 0,
	})
	return r
}

// RunE17 validates the §2.1 outage use case end to end: fail a transit
// provider, and check that the map's routes component — built from the
// public view plus cloud campaigns — predicts where client→service routes
// actually move. The simulator can compute the true post-outage routes; a
// real operator cannot, which is exactly why the map matters.
func (e *Env) RunE17() *Result {
	r := &Result{ID: "E17", Title: "Outage reroute prediction with the routes component"}
	w := e.W

	// Fail the transit AS carrying the most client→service routes (the
	// outage with the widest blast radius on the paths the map tracks).
	owners := w.Cat.Owners()
	clients := w.Top.ASesOfType(topology.Eyeball)
	usage := map[topology.ASN]int{}
	for _, owner := range owners {
		rib := w.Paths.RIBFor(owner)
		for _, c := range clients {
			path := rib.PathFrom(c)
			for _, asn := range path[1:] {
				if w.Top.ASes[asn].Type == topology.Transit {
					usage[asn]++
				}
			}
		}
	}
	var target topology.ASN
	best := 0
	for _, asn := range w.Top.ASesOfType(topology.Transit) {
		if usage[asn] > best {
			best, target = usage[asn], asn
		}
	}
	if target == 0 {
		r.Values = append(r.Values, Value{Name: "transit AS present", Paper: "n/a", Measured: "none", Pass: false})
		return r
	}
	avoid := func(l topology.LinkInfo) bool { return l.A != target && l.B != target }

	// Truth: the world without the failed AS's links.
	truthAfter := w.Top.Subgraph(avoid)

	// Prediction: public view + cloud campaigns, minus the failed AS.
	giants := append(w.Top.ASesOfType(topology.Cloud), w.Top.ASesOfType(topology.Hypergiant)...)
	cloudLinks := tracer.CloudCampaign(w.Paths, giants, w.Top.ASNs())
	augLinks := tracer.Union(e.ObservedLinks(), cloudLinks)
	predictedAfter := w.Top.SubgraphWithLinks(augLinks).Subgraph(avoid)

	// The map's refresh loop, two channels: (a) cloud-VM campaigns
	// re-measure out to the client networks (forward + reverse
	// traceroute), revealing each client's newly-active backup provider
	// chain; (b) the collectors' BGP UPDATE stream carries the new AS
	// paths within minutes of the event.
	truthAfterPaths := bgp.ComputeAll(truthAfter)
	postLinks := tracer.CloudCampaign(truthAfterPaths, giants, clients)
	updates := e.Collector().ComputeUpdates(w.Paths, truthAfterPaths)
	updateLinks := bgp.LinksFromUpdates(updates)
	refreshed := truthAfter.SubgraphWithLinks(
		tracer.Union(augLinks, postLinks, updateLinks)).Subgraph(avoid)

	var affected, disconnected, disconnectedPredicted float64
	var reroutable, exact, ingressOK, refreshedOK, reachableAgreement, pairs float64
	for _, owner := range owners {
		truthRIB := truthAfterPaths.RIBFor(owner)
		predRIB := bgp.ComputeRIB(predictedAfter, owner)
		refreshedRIB := bgp.ComputeRIB(refreshed, owner)
		beforeRIB := w.Paths.RIBFor(owner)
		for _, c := range clients {
			if c == target {
				continue
			}
			pairs++
			before := beforeRIB.PathFrom(c)
			truth := truthRIB.PathFrom(c)
			pred := predRIB.PathFrom(c)
			if (truth == nil) == (pred == nil) {
				reachableAgreement++
			}
			if !pathUses(before, target) {
				continue
			}
			affected++
			if truth == nil {
				// Single-homed through the failed provider:
				// the client goes dark. Predicting that is
				// itself the §2.1 answer.
				disconnected++
				if pred == nil {
					disconnectedPredicted++
				}
				continue
			}
			reroutable++
			if tracer.PathsEqual(pred, truth) {
				exact++
			}
			// The operationally decisive fact is where the traffic
			// re-enters the service's network (the new ingress
			// neighbor), which fixes the landing site.
			ingress := func(p []topology.ASN) topology.ASN {
				if len(p) < 2 {
					return 0
				}
				return p[len(p)-2]
			}
			if pred != nil && ingress(truth) == ingress(pred) {
				ingressOK++
			}
			if ref := refreshedRIB.PathFrom(c); ref != nil &&
				ingress(truth) == ingress(ref) {
				refreshedOK++
			}
		}
	}
	r.Values = append(r.Values, Value{
		Name:     "post-outage reachability agreement",
		Paper:    "n/a (map use case §2.1: 'where the prefixes may be routed instead')",
		Measured: fmt.Sprintf("%s of %d (client, owner) pairs", pct(reachableAgreement/pairs), int(pairs)),
		Pass:     reachableAgreement/pairs > 0.95,
	})
	fracDisc := 0.0
	if disconnected > 0 {
		fracDisc = disconnectedPredicted / disconnected
	}
	r.Values = append(r.Values, Value{
		Name:  "clients predicted to go dark (single-homed on the failed AS)",
		Paper: "§2.1: 'what fraction of traffic or users are affected'",
		Measured: fmt.Sprintf("%s of %d disconnections predicted (failed AS%d, %s; %d affected pairs)",
			pct(fracDisc), int(disconnected), target, w.Top.ASes[target].Name, int(affected)),
		Pass: disconnected == 0 || fracDisc > 0.9,
	})
	fracIngress, fracExact, fracRefreshed := 0.0, 0.0, 0.0
	if reroutable > 0 {
		fracIngress = ingressOK / reroutable
		fracExact = exact / reroutable
		fracRefreshed = refreshedOK / reroutable
	}
	r.Values = append(r.Values, Value{
		Name:  "new service ingress predicted for reroutable pairs",
		Paper: "§3.3: backup links are partly invisible in public topologies",
		Measured: fmt.Sprintf("%s ingress-correct (%s exact-path) over %d reroutable pairs",
			pct(fracIngress), pct(fracExact), int(reroutable)),
		Pass: reroutable == 0 || fracIngress > 0.5,
	})
	r.Values = append(r.Values, Value{
		Name:  "after post-event refresh (cloud campaigns + collector updates)",
		Paper: "the map is maintainable: updates arrive within minutes, campaigns within hours",
		Measured: fmt.Sprintf("%s ingress-correct (vs %s pre-event; %d UPDATE messages observed)",
			pct(fracRefreshed), pct(fracIngress), len(updates)),
		Pass: fracRefreshed >= fracIngress && (reroutable == 0 || fracRefreshed > 0.5),
	})
	return r
}

func pathUses(path []topology.ASN, asn topology.ASN) bool {
	for _, a := range path {
		if a == asn {
			return true
		}
	}
	return false
}
