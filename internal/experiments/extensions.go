package experiments

// Extension experiments E10-E13 implement the paper's proposed-but-unbuilt
// directions (§3.1.3 resolver-client association and hourly activity,
// §3.2.3 cache efficacy) and its named baseline (§1's traceroute-based
// traffic estimation [53]). They extend the paper's evaluation rather than
// reproduce a printed artifact, so "Paper" columns quote the proposal text.

import (
	"fmt"
	"math"

	"itmap/internal/cachesim"
	"itmap/internal/geo"
	"itmap/internal/measure/cacheprobe"
	"itmap/internal/measure/resolvermap"
	"itmap/internal/measure/tracer"
	"itmap/internal/measure/trafest"
	"itmap/internal/order"
	"itmap/internal/randx"
	"itmap/internal/simtime"
	"itmap/internal/stats"
	"itmap/internal/topology"
	"itmap/internal/world"
)

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

// E13 probes three days, every five minutes, each day from its
// cacheprobe.DayStart, clear of the TTL window edges.
const (
	e13Days     = 3
	e13Interval = 5 * simtime.Minute
)

// e13Prefixes is the domain E13 probes and its targets: the office and
// campus prefixes, grouped by country (= timezone).
func e13Prefixes(w *world.World) (string, map[string][]topology.PrefixID) {
	byCountry := map[string][]topology.PrefixID{}
	for _, ty := range []topology.ASType{topology.Enterprise, topology.Academic} {
		for _, asn := range w.Top.ASesOfType(ty) {
			a := w.Top.ASes[asn]
			byCountry[a.Country] = append(byCountry[a.Country], a.Prefixes...)
		}
	}
	return w.Cat.ECSDomains()[0], byCountry
}

// RunE13 pushes the users component to Table 1's desired "Hourly" temporal
// precision: per-hour cache hit rates recover each network's diurnal
// activity curve, with the peak at the users' local evening.
func (e *Env) RunE13() *Result {
	r := &Result{ID: "E13", Title: "Hourly activity curves recovered from cache probing"}
	w := e.W
	// High-population prefixes keep the top domains cached around the
	// clock (saturated hit rate, no curve); small office/campus prefixes
	// sit in the informative mid-range where cache occupancy follows
	// instantaneous demand. Probe those, grouped by country (= timezone).
	domain, byCountry := e13Prefixes(w)
	svc, _ := w.Cat.ByDomain(domain)
	pb := &cacheprobe.Prober{PR: w.PR}
	checked, close, diurnal := 0, 0, 0
	for _, c := range geo.Countries() {
		prefixes := byCountry[c.Code]
		if len(prefixes) < 8 {
			continue
		}
		hp := &cacheprobe.HourlyProfile{}
		ok := true
		for day := 0; day < e13Days; day++ {
			d, err := pb.MeasureHourlyProfile(w.Top, prefixes, domain,
				cacheprobe.DayStart(day, e13Interval, svc.TTLSeconds), e13Interval)
			if err != nil {
				ok = false
				break
			}
			for h := 0; h < 24; h++ {
				hp.Hits[h] += d.Hits[h]
				hp.Probes[h] += d.Probes[h]
			}
		}
		if !ok {
			continue
		}
		if hp.Swing() < 0.2 {
			continue // saturated or empty signal
		}
		diurnal++
		truePeakUTC := int(math.Round(20-c.UTCOffsetHours+24)) % 24
		checked++
		if cacheprobe.HourDistance(hp.PeakUTCHour(), truePeakUTC) <= 3 {
			close++
		}
	}
	frac := 0.0
	if checked > 0 {
		frac = float64(close) / float64(checked)
	}
	r.Values = append(r.Values, Value{
		Name:     "networks whose recovered peak hour matches local evening (±3h)",
		Paper:    "desired: hourly precision (Table 1)",
		Measured: fmt.Sprintf("%s of %d countries' largest ISPs (%d diurnal)", pct0(frac), checked, diurnal),
		Pass:     checked > 0 && frac > 0.7,
	})
	return r
}
