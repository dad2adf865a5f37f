package experiments

// §3.1, the users component: discovery recall (E5), IP-ID velocity (E6),
// the public resolver's share (E9), resolver-client association (E10),
// adoption de-biasing (E21), bot filtering (E23), probing through faults
// (E24) and the user↔user mesh (E26).

import (
	"fmt"

	"itmap/internal/core"
	"itmap/internal/dnssim"
	"itmap/internal/faults"
	"itmap/internal/measure/botfilter"
	"itmap/internal/measure/cacheprobe"
	"itmap/internal/measure/ipid"
	"itmap/internal/measure/resolvermap"
	"itmap/internal/order"
	"itmap/internal/resilience"
	"itmap/internal/simtime"
	"itmap/internal/stats"
	"itmap/internal/topology"
)

// RunE5 reproduces the §3.1.2 client-discovery validation against the
// reference CDN's server logs.
func (e *Env) RunE5() *Result {
	r := &Result{ID: "E5", Title: "Client discovery validated against reference-CDN logs"}
	v := core.ValidateUsers(e.Map().Document(), e.Matrix(), e.APNIC())
	r.Values = append(r.Values, Value{
		Name:     "CDN traffic in prefixes found by cache probing",
		Paper:    "95%",
		Measured: pct(v.PrefixTrafficRecall),
		Pass:     v.PrefixTrafficRecall > 0.85,
	})
	r.Values = append(r.Values, Value{
		Name:     "CDN traffic in ASes found by root-log crawling",
		Paper:    "60%",
		Measured: pct(v.ASTrafficRecallRoots),
		Pass:     v.ASTrafficRecallRoots > 0.4,
	})
	r.Values = append(r.Values, Value{
		Name:     "CDN traffic in ASes found by either technique",
		Paper:    "99%",
		Measured: pct(v.ASTrafficRecallCombined),
		Pass:     v.ASTrafficRecallCombined > 0.9,
	})
	r.Values = append(r.Values, Value{
		Name:     "found prefixes that never contacted the CDN",
		Paper:    "<1%",
		Measured: pct(v.FalseDiscoveryFrac),
		Pass:     v.FalseDiscoveryFrac < 0.05,
	})
	r.Values = append(r.Values, Value{
		Name:     "APNIC-estimated users in identified ASes",
		Paper:    "98%",
		Measured: pct(v.APNICUserCoverage),
		Pass:     v.APNICUserCoverage > 0.9,
	})
	r.Values = append(r.Values, Value{
		Name:     "activity estimate vs truth (rank corr)",
		Paper:    "n/a (proposed)",
		Measured: fmt.Sprintf("Spearman %.2f", v.ActivityRankCorr),
		Pass:     v.ActivityRankCorr > 0.5,
	})
	return r
}

// RunE6 reproduces the IP-ID velocity intuition: router counters are
// diurnal and proportional to forwarded traffic.
func (e *Env) RunE6() *Result {
	r := &Result{ID: "E6", Title: "IP-ID velocities are diurnal and track traffic"}
	w := e.W
	mx := e.Matrix()
	meter := ipid.NewMeter(w.Top, mx, w.Cfg.Seed+404)

	var xs, ys []float64
	diurnal, loaded := 0, 0
	for _, asn := range w.Top.ASNs() {
		if mx.ASLoad[asn] == 0 {
			continue
		}
		samples := ipid.ProbeVelocity(meter, asn, 0, 48, 30*simtime.Minute)
		mean := ipid.MeanRate(samples)
		xs = append(xs, mean)
		ys = append(ys, mx.ASLoad[asn])
		if mean < 100 {
			continue
		}
		loaded++
		if ipid.DiurnalitySwing(samples) > 0.4 {
			diurnal++
		}
	}
	rho := stats.Spearman(xs, ys)
	fracDiurnal := 0.0
	if loaded > 0 {
		fracDiurnal = float64(diurnal) / float64(loaded)
	}
	r.Values = append(r.Values, Value{
		Name:     "loaded routers with diurnal IP-ID velocity",
		Paper:    "most routers display diurnal patterns",
		Measured: fmt.Sprintf("%s of %d loaded routers", pct0(fracDiurnal), loaded),
		Pass:     fracDiurnal > 0.8,
	})
	r.Values = append(r.Values, Value{
		Name:     "velocity vs forwarded traffic (rank corr)",
		Paper:    "proportional to forwarded traffic",
		Measured: fmt.Sprintf("Spearman %.2f over %d routers", rho, len(xs)),
		Pass:     rho > 0.8,
	})
	return r
}

// RunE9 reproduces the public-resolver query-share figure the cache-probing
// technique leans on.
func (e *Env) RunE9() *Result {
	r := &Result{ID: "E9", Title: "Public resolver share of DNS queries"}
	w := e.W
	var total, viaPublic float64
	for _, asn := range w.Top.ASNs() {
		u := w.Users.ASUsers(asn)
		if u == 0 {
			continue
		}
		share := w.PR.AdoptionShare(w.Top.ASes[asn].Country)
		total += u
		viaPublic += u * share
	}
	share := viaPublic / total
	r.Values = append(r.Values, Value{
		Name:     "queries via the public resolver",
		Paper:    "30-35% (Google Public DNS [16])",
		Measured: pct(share),
		Pass:     share > 0.25 && share < 0.45,
	})
	return r
}

// RunE10 implements the §3.1.3 open question: "deploy techniques to
// associate recursive resolvers with their clients ... Such an association
// would enable joining of resolver-based techniques with client-based
// techniques."
func (e *Env) RunE10() *Result {
	r := &Result{ID: "E10", Title: "Resolver-client association joins resolver- and client-based techniques"}
	w := e.W
	assoc := resolvermap.Collect(w.Top, w.Users, w.Traffic, w.PR, resolvermap.DefaultConfig())
	crawl := e.Crawl()

	naive := crawl.ClientASes(w.PR.Owner)
	corrected := assoc.Reattribute(w.Top, crawl.ActivityByResolverPrefix)

	var nx, ny, cx, cy []float64
	for _, asn := range w.Top.ASNs() {
		u := w.Users.ASUsers(asn)
		if u == 0 {
			continue
		}
		nx = append(nx, naive[asn])
		ny = append(ny, u)
		cx = append(cx, corrected[asn])
		cy = append(cy, u)
	}
	rhoNaive := stats.Spearman(nx, ny)
	rhoCorrected := stats.Spearman(cx, cy)
	r.Values = append(r.Values, Value{
		Name:     "per-AS activity rank corr, naive vs association-corrected",
		Paper:    "proposed: association would enable joining techniques",
		Measured: fmt.Sprintf("Spearman %.2f → %.2f", rhoNaive, rhoCorrected),
		Pass:     rhoCorrected > rhoNaive,
	})

	// Traffic-weighted recall of the reference CDN with corrected
	// attribution: outsourced-resolver networks come back.
	mx := e.Matrix()
	var total, naiveFound, corrFound float64
	for _, asn := range order.Keys(mx.RefCDNByAS) {
		b := mx.RefCDNByAS[asn]
		total += b
		if naive[asn] > 0 {
			naiveFound += b
		}
		if corrected[asn] > 0 {
			corrFound += b
		}
	}
	r.Values = append(r.Values, Value{
		Name:     "CDN traffic in root-log-identified ASes after correction",
		Paper:    "60% before joining (paper's approach-2 ceiling)",
		Measured: fmt.Sprintf("%s → %s", pct(naiveFound/total), pct(corrFound/total)),
		Pass:     corrFound > naiveFound,
	})
	r.Values = append(r.Values, Value{
		Name:     "client ASes associated with a resolver",
		Paper:    "n/a (proposed)",
		Measured: fmt.Sprintf("%d", assoc.AssociatedClientASes()),
		Pass:     assoc.AssociatedClientASes() > 0,
	})
	return r
}

// RunE21 implements the §3.1.3 combination question: "How can techniques be
// combined to best overcome biases ...? Usage of both Google Public DNS and
// Chromium may be skewed." Adoption skew is *measured* with the
// resolver-client association, then divided out of the cache-probing
// signal; country-level activity shares move toward the truth.
func (e *Env) RunE21() *Result {
	r := &Result{ID: "E21", Title: "De-biasing cache probing for public-DNS adoption skew"}
	w := e.W
	// The signal must sit in the linear regime: for high-population
	// prefixes cache occupancy saturates (a hit regardless of adoption),
	// so adoption skew drops out on its own. Small office/campus
	// prefixes have hit probability ∝ rate·TTL ∝ users × adoption — the
	// regime where the skew bites and de-biasing matters. Probe those.
	var smallPrefixes []topology.PrefixID
	truthUsers := map[topology.ASN]float64{}
	for _, ty := range []topology.ASType{topology.Enterprise, topology.Academic} {
		for _, asn := range w.Top.ASesOfType(ty) {
			a := w.Top.ASes[asn]
			smallPrefixes = append(smallPrefixes, a.Prefixes...)
			if u := w.Users.ASUsers(asn); u > 0 {
				truthUsers[asn] = u
			}
		}
	}
	// Small samples are noisy (a country may have a handful of office
	// prefixes, each using only some services), so aggregate inverted
	// query rates over several popular domains: independent usage draws
	// average out and the adoption bias, common to all of them, remains.
	pb := &cacheprobe.Prober{PR: w.PR}
	domains := w.Cat.ECSDomains()
	if len(domains) > 8 {
		domains = domains[:8]
	}
	rateByAS := map[topology.ASN]float64{}
	for _, domain := range domains {
		hr, err := pb.MeasureHitRates(w.Top, smallPrefixes,
			domain, 0, 15*simtime.Minute)
		if err != nil {
			r.Values = append(r.Values, Value{Name: "campaign", Paper: "n/a", Measured: err.Error(), Pass: false})
			return r
		}
		// Invert cache occupancy into query-rate estimates (the TTL
		// is public: it is in every DNS response).
		svcTTL := 60
		if svc, ok := w.Cat.ByDomain(domain); ok {
			svcTTL = svc.TTLSeconds
		}
		for _, p := range order.Keys(hr.ByPrefix) {
			if asn, ok := w.Top.OwnerOf(p); ok {
				rateByAS[asn] += cacheprobe.RateFromHitRate(hr.ByPrefix[p], hr.ProbesPerPrefix, svcTTL)
			}
		}
	}

	// Measure adoption from the instrumented-page association.
	assoc := resolvermap.Collect(w.Top, w.Users, w.Traffic, w.PR, resolvermap.DefaultConfig())
	prPrefix, ok := dnssim.ResolverOfAS(w.Top, w.PR.Owner)
	if !ok {
		r.Values = append(r.Values, Value{Name: "public resolver prefix", Paper: "n/a", Measured: "missing", Pass: false})
		return r
	}
	adoption := assoc.EstimateAdoption(w.Top, prPrefix)

	// The adoption estimate itself should track the (hidden) truth.
	var ax, ay []float64
	for _, c := range order.Keys(adoption) {
		ax = append(ax, adoption[c])
		ay = append(ay, w.PR.AdoptionShare(c))
	}
	rhoAdoption := stats.Spearman(ax, ay)
	r.Values = append(r.Values, Value{
		Name:     "measured vs true per-country adoption (rank corr)",
		Paper:    "'usage of Google Public DNS may be skewed' (unknown skew)",
		Measured: fmt.Sprintf("Spearman %.2f over %d countries", rhoAdoption, len(adoption)),
		Pass:     rhoAdoption > 0.8,
	})

	// Country activity shares from raw vs de-biased hit counts, against
	// the true user shares of the probed population.
	truthShares := core.CountryShares(truthUsers, w.Top)
	rawShares := core.CountryShares(rateByAS, w.Top)
	debiased := core.DebiasByCountry(rateByAS, adoption, w.Top)
	debiasedShares := core.CountryShares(debiased, w.Top)
	tvRaw := core.TVDistance(rawShares, truthShares)
	tvDebiased := core.TVDistance(debiasedShares, truthShares)
	r.Values = append(r.Values, Value{
		Name:     "country activity shares vs truth (TV distance)",
		Paper:    "combining techniques should mitigate the bias",
		Measured: fmt.Sprintf("raw %s → de-biased %s", pct(tvRaw), pct(tvDebiased)),
		Pass:     tvDebiased < tvRaw,
	})
	return r
}

// RunE23 tackles the §3.1.2 open challenge verbatim: "A key challenge is
// extending them to find Internet users (as opposed to bots and other
// non-human clients)." Enterprise space hides automation farms; the filter
// separates them from office populations purely by the rhythm of their
// cache-occupancy profiles.
func (e *Env) RunE23() *Result {
	r := &Result{ID: "E23", Title: "Separating users from bots by activity rhythm"}
	w := e.W
	pb := &cacheprobe.Prober{PR: w.PR}
	domains := w.Cat.ECSDomains()
	if len(domains) > 10 {
		domains = domains[:10]
	}
	c := botfilter.NewClassifier(pb, domains)

	// Classify the ambiguous population: enterprise space (offices and
	// bot farms look identical to discovery sweeps).
	var verdicts []botfilter.Verdict
	bots := 0
	total := 0
	for _, asn := range w.Top.ASesOfType(topology.Enterprise) {
		for _, p := range w.Top.ASes[asn].Prefixes {
			total++
			if w.Traffic.IsBotPrefix(p) {
				bots++
			}
			v, err := c.Classify(w.Top, p)
			if err != nil {
				r.Values = append(r.Values, Value{Name: "campaign", Paper: "n/a", Measured: err.Error(), Pass: false})
				return r
			}
			verdicts = append(verdicts, v)
		}
	}
	ev := botfilter.Evaluate(verdicts, w.Traffic.IsBotPrefix)
	r.Values = append(r.Values, Value{
		Name:     "classifiable share of enterprise prefixes",
		Paper:    "open challenge: users vs bots (§3.1.2)",
		Measured: fmt.Sprintf("%d of %d observed (%d true bot farms)", ev.Observed, total, bots),
		Pass:     ev.Observed > total/3,
	})
	r.Values = append(r.Values, Value{
		Name:     "human-prefix precision / recall",
		Paper:    "n/a (proposed direction)",
		Measured: fmt.Sprintf("%s / %s", pct(ev.Precision), pct(ev.Recall)),
		Pass:     ev.Precision > 0.85 && ev.Recall > 0.6,
	})
	r.Values = append(r.Values, Value{
		Name:     "bot-farm recall",
		Paper:    "n/a (proposed direction)",
		Measured: pct(ev.BotRecall),
		Pass:     ev.BotRecall > 0.6,
	})
	return r
}

// RunE24 measures what the map inherits from a misbehaving substrate. The
// paper's campaigns fight throttling resolvers, lossy paths, and flapping
// PoPs (§3.1.2); this experiment sweeps the fault presets and compares a
// naive single-source prober against the resilient client (retry/backoff,
// per-PoP breakers, sharded sources) on how much of the fault-free
// discovery coverage each recovers, and at what wasted-probe overhead.
func (e *Env) RunE24() *Result {
	r := &Result{ID: "E24", Title: "Measurement resilience under substrate faults"}
	w := e.W
	// A budget-constrained campaign: one domain, two rounds. The full
	// discovery sweep's 8×4 redundancy shrugs off even heavy loss (any
	// surviving probe finds the prefix); a realistic per-window budget is
	// where substrate faults actually cost coverage.
	domains := w.Cat.ECSDomains()[:1]
	const rounds = 2
	prefixes := w.Top.AllPrefixes()

	w.PR.SetFaultPlan(nil)
	defer w.PR.SetFaultPlan(nil)
	basePB := &cacheprobe.Prober{PR: w.PR, Domains: domains, Source: 0x5eed}
	base, err := basePB.DiscoverPrefixes(w.Top, prefixes, e.start, rounds)
	if err != nil || len(base.Found) == 0 {
		r.Values = append(r.Values, Value{Name: "baseline", Paper: "n/a", Measured: fmt.Sprintf("no fault-free coverage (%v)", err), Pass: false})
		return r
	}

	for _, prof := range faults.Presets() {
		plan := faults.NewPlan(prof, w.Cfg.Seed+404)
		w.PR.SetFaultPlan(plan)

		naivePB := &cacheprobe.Prober{PR: w.PR, Domains: domains, Source: 0x5eed}
		nd, err := naivePB.DiscoverPrefixes(w.Top, prefixes, e.start, rounds)
		if err != nil {
			r.Values = append(r.Values, Value{Name: prof.Name, Paper: "n/a", Measured: err.Error(), Pass: false})
			return r
		}

		rp := &cacheprobe.ResilientProber{
			PR:      w.PR,
			Domains: domains,
			Retry: resilience.Retryer{
				Budget: 6,
				Backoff: resilience.Backoff{
					Base:   4 * simtime.Minute,
					Factor: 3,
					Cap:    2 * simtime.Hour,
					Jitter: 0.5,
					Seed:   uint64(w.Cfg.Seed) + 404,
				},
			},
			// A deliberately low per-source budget spreads each shard's
			// sweep across hours (interleaving probes over the refresh
			// window), so a ban or outage window only covers a slice of
			// the shard's targets instead of a whole probing round.
			QPS:        0.05,
			Burst:      4,
			BaseSource: 0x7e50,
		}
		rd, stats, err := rp.DiscoverPrefixes(w.Top, prefixes, e.start, rounds)
		if err != nil {
			r.Values = append(r.Values, Value{Name: prof.Name, Paper: "n/a", Measured: err.Error(), Pass: false})
			return r
		}

		naiveCov := float64(len(nd.Found)) / float64(len(base.Found))
		resCov := float64(len(rd.Found)) / float64(len(base.Found))
		naiveWaste := 0.0
		if nd.Probes > 0 {
			naiveWaste = float64(nd.Failed) / float64(nd.Probes)
		}
		resWaste := 0.0
		if rd.Probes > 0 {
			resWaste = float64(rd.Failed) / float64(rd.Probes)
		}
		// Resilience must not lose to the naive client (modulo the cache
		// occupancy drift retries introduce by probing at shifted times),
		// and under the hostile regime it must hold ≥90% of fault-free
		// coverage while the naive prober measurably cannot.
		pass := resCov >= naiveCov-0.02
		if prof.Name == "hostile" {
			pass = resCov >= 0.90 && naiveCov <= resCov-0.05
		}
		r.Values = append(r.Values, Value{
			Name:     fmt.Sprintf("%s: coverage naive vs resilient", prof.Name),
			Paper:    "n/a (robustness extension)",
			Measured: fmt.Sprintf("%s vs %s of fault-free (waste %s vs %s)", pct(naiveCov), pct(resCov), pct(naiveWaste), pct(resWaste)),
			Pass:     pass,
		})
		if prof.Name == "hostile" {
			r.Values = append(r.Values, Value{
				Name:  "hostile: sweep ledger",
				Paper: "n/a (robustness extension)",
				Measured: fmt.Sprintf("%d probes, %d retries, %d gave-up, %d breaker-opens",
					stats.Probes, stats.Retries, stats.GiveUps, stats.BreakerOpens),
				Pass: stats.Retries > 0,
			})
		}
	}
	return r
}

// RunE26 exercises the user↔user mesh layer: a vantage fleet probing AS
// pairs through the fault substrate under the calm and hostile presets.
// Gigis et al. measure user-to-user connectivity with RIPE Atlas probes in
// eyeball ASes; the claim here is the simulation analogue — a hostile
// network visibly costs the mesh coverage (fewer complete paths, more lost
// pings).
func (e *Env) RunE26() *Result {
	r := &Result{ID: "E26", Title: "Vantage-fleet mesh coverage, calm vs hostile"}
	calmProf, _ := faults.ByName("calm")
	hostProf, _ := faults.ByName("hostile")
	spec := func(p faults.Profile) MeshSpec { return MeshSpec{Agents: 48, Rounds: 2, Profile: p} }

	calm, calmStats := RunMeshCampaign(e.W, spec(calmProf), 0, 0)
	host, hostStats := RunMeshCampaign(e.W, spec(hostProf), 0, 0)

	coverage := func(d *core.MeshDocument) (complete, loss float64) {
		probes, lost, done := 0, 0, 0
		for i := range d.Pairs {
			p := &d.Pairs[i]
			probes += p.Probes
			lost += p.Lost
			if p.Complete {
				done++
			}
		}
		if len(d.Pairs) > 0 {
			complete = float64(done) / float64(len(d.Pairs))
		}
		if probes > 0 {
			loss = float64(lost) / float64(probes)
		}
		return complete, loss
	}
	calmDone, calmLoss := coverage(calm)
	hostDone, hostLoss := coverage(host)

	r.Values = append(r.Values, Value{
		Name:     "complete-path coverage, calm vs hostile",
		Paper:    "hostile networks cost coverage (Atlas-style mesh)",
		Measured: fmt.Sprintf("calm %.2f vs hostile %.2f over %d/%d pairs", calmDone, hostDone, len(calm.Pairs), len(host.Pairs)),
		Pass:     len(calm.Pairs) > 0 && calmDone > hostDone,
	})
	r.Values = append(r.Values, Value{
		Name:     "ping loss rate, calm vs hostile",
		Paper:    "fault presets order loss rates",
		Measured: fmt.Sprintf("calm %.3f vs hostile %.3f (%d vs %d pings)", calmLoss, hostLoss, calmStats.Pings, hostStats.Pings),
		Pass:     hostLoss > calmLoss,
	})
	return r
}
