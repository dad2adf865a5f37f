package experiments

// Figures 1 and 2: prefixes per PoP (F1a), per-country user coverage and
// server locations (F1b), hit rate vs subscribers (F2), and the off-net
// rollout behind Figure 1b's server map (E18).

import (
	"fmt"
	"sort"

	"itmap/internal/geo"
	"itmap/internal/measure/tlsscan"
	"itmap/internal/order"
	"itmap/internal/services"
	"itmap/internal/stats"
	"itmap/internal/topology"
)

// RunFigure1a reproduces Figure 1a: prefixes discovered per public-resolver
// PoP by cache probing.
func (e *Env) RunFigure1a() *Result {
	r := &Result{ID: "F1a", Title: "Clients detected via cache probing, per resolver PoP"}
	disc := e.Discovery()
	counts := disc.PoPCounts(e.W.PR)
	s := Series{Name: "prefixes per PoP"}
	maxC, minC := 0, 1<<30
	for _, pc := range counts {
		s.Labels = append(s.Labels, pc.PoP.Name)
		s.Values = append(s.Values, float64(pc.Prefixes))
		if pc.Prefixes > maxC {
			maxC = pc.Prefixes
		}
		if pc.Prefixes < minC {
			minC = pc.Prefixes
		}
	}
	r.Series = append(r.Series, s)
	r.Values = append(r.Values, Value{
		Name:     "per-PoP prefix counts span orders of magnitude",
		Paper:    "counts from ~10^1 to ~10^5 across PoPs",
		Measured: fmt.Sprintf("%d PoPs, counts %d..%d", len(counts), minC, maxC),
		Pass:     len(counts) > 3 && maxC >= 10*max(minC, 1),
	})
	return r
}

// RunFigure1b reproduces Figure 1b: per-country share of (APNIC-estimated)
// users inside ASes cache probing identified, plus the reference CDN's
// server map from TLS scans.
func (e *Env) RunFigure1b() *Result {
	r := &Result{ID: "F1b", Title: "Country coverage of cache probing + CDN server locations"}
	w := e.W
	disc := e.Discovery()
	est := e.APNIC()
	scan := e.Scan()

	perCountryTotal := map[string]float64{}
	perCountryFound := map[string]float64{}
	for _, asn := range order.Keys(est.ByAS) {
		a := w.Top.ASes[asn]
		if a == nil || a.Country == "ZZ" {
			continue
		}
		u := est.ByAS[asn]
		perCountryTotal[a.Country] += u
		if disc.FoundASes[asn] {
			perCountryFound[a.Country] += u
		}
	}
	var codes []string
	for c := range perCountryTotal {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	s := Series{Name: "% of country's APNIC users covered"}
	var totalU, foundU float64
	lowCountries := 0
	for _, c := range codes {
		frac := perCountryFound[c] / perCountryTotal[c]
		s.Labels = append(s.Labels, c)
		s.Values = append(s.Values, frac*100)
		totalU += perCountryTotal[c]
		foundU += perCountryFound[c]
		if frac < 0.8 {
			lowCountries++
		}
	}
	r.Series = append(r.Series, s)
	overall := foundU / totalU
	r.Values = append(r.Values, Value{
		Name:     "share of APNIC users in identified ASes",
		Paper:    "98%",
		Measured: pct(overall),
		Pass:     overall > 0.9,
	})
	locs := scan.Locations(w.Cat.ReferenceCDN)
	r.Values = append(r.Values, Value{
		Name:     "CDN server locations found via TLS scans",
		Paper:    "global Facebook footprint (dots)",
		Measured: fmt.Sprintf("%d cities across %d countries", len(locs), countriesOf(locs)),
		Pass:     countriesOf(locs) >= 5,
	})
	r.Notes = fmt.Sprintf("%d of %d countries below 80%% coverage", lowCountries, len(codes))
	return r
}

func countriesOf(cities []geo.City) int {
	seen := map[string]bool{}
	for _, c := range cities {
		seen[c.Country] = true
	}
	return len(seen)
}

// RunFigure2 reproduces Figure 2: ISP subscriber counts vs cache hit rate
// and vs APNIC estimates, with the French-ISP case study.
func (e *Env) RunFigure2() *Result {
	r := &Result{ID: "F2", Title: "Subscribers vs cache hit rate and APNIC estimates"}
	w := e.W
	hr := e.HitRates()
	est := e.APNIC()

	// Panel data: the largest eyeballs worldwide (the paper uses FR, JP,
	// KR, UK, US eyeballs).
	type isp struct {
		name          string
		country       string
		subsK         float64
		hitRate       float64
		apnicM        float64
		hasAPNIC      bool
		isCaseCountry bool
	}
	var isps []isp
	for _, asn := range w.Top.ASesOfType(topology.Eyeball) {
		a := w.Top.ASes[asn]
		rate, ok := hr.ByAS[asn]
		if !ok {
			continue
		}
		row := isp{
			name: a.Name, country: a.Country, subsK: a.SubscribersK,
			hitRate: rate, isCaseCountry: a.Country == "FR",
		}
		if u, ok := est.Users(asn); ok {
			row.apnicM, row.hasAPNIC = u/1e6, true
		}
		isps = append(isps, row)
	}
	sort.Slice(isps, func(i, j int) bool { return isps[i].subsK > isps[j].subsK })

	// Global correlations over large ISPs.
	var subs, rates, apnicX, apnicY []float64
	for _, x := range isps {
		if x.subsK < 500 {
			continue
		}
		subs = append(subs, x.subsK)
		rates = append(rates, x.hitRate)
		if x.hasAPNIC {
			apnicX = append(apnicX, x.subsK)
			apnicY = append(apnicY, x.apnicM)
		}
	}
	rhoHit := stats.Spearman(subs, rates)
	rhoAPNIC := stats.Spearman(apnicX, apnicY)
	r.Values = append(r.Values, Value{
		Name:     "cache hit rate correlates with subscribers",
		Paper:    "visible correlation (fitted line)",
		Measured: fmt.Sprintf("Spearman %.2f over %d large ISPs", rhoHit, len(subs)),
		Pass:     rhoHit > 0.5,
	})
	r.Values = append(r.Values, Value{
		Name:     "APNIC estimates correlate with subscribers",
		Paper:    "visible correlation (fitted line)",
		Measured: fmt.Sprintf("Spearman %.2f over %d ISPs", rhoAPNIC, len(apnicX)),
		Pass:     rhoAPNIC > 0.5,
	})

	// French case study: hit rate must order the named ISPs by
	// subscribers.
	var frSubs, frRates []float64
	var frNames []string
	for _, x := range isps {
		if x.country != "FR" {
			continue
		}
		switch x.name {
		case "Orange", "SFR", "Free", "Bouygues", "Free_M", "El_tele":
			frSubs = append(frSubs, x.subsK)
			frRates = append(frRates, x.hitRate)
			frNames = append(frNames, x.name)
		}
	}
	tau := stats.KendallTau(frSubs, frRates)
	r.Values = append(r.Values, Value{
		Name:     "hit rate orders French ISPs by subscribers",
		Paper:    "correct ordering",
		Measured: fmt.Sprintf("Kendall tau %.2f over %v", tau, frNames),
		Pass:     tau >= 0.7,
	})
	fr := Series{Name: "FR ISP cache-hit counts"}
	for i, n := range frNames {
		fr.Labels = append(fr.Labels, fmt.Sprintf("%s (%.1fM subs)", n, frSubs[i]/1000))
		fr.Values = append(fr.Values, frRates[i])
	}
	r.Series = append(r.Series, fr)
	return r
}

// RunE18 reconstructs the off-net rollout longitudinally: yearly TLS scans
// of the same address space show hypergiant caches spreading through
// eyeball networks, biggest hosts first — the "seven years in the life of
// hypergiants' off-nets" result [25] behind Figure 1b's server map.
func (e *Env) RunE18() *Result {
	r := &Result{ID: "E18", Title: "Off-net footprint growth from yearly TLS scans"}
	w := e.W
	owner := w.Cat.ReferenceCDN
	prefixes := w.Top.AllPrefixes()

	s := Series{Name: fmt.Sprintf("%s off-net host networks by year", w.Top.ASes[owner].Name)}
	prev := -1
	monotone := true
	var first, last int
	var firstMedian, lastMedian float64
	for year := services.FirstOffNetYear; year <= services.LastOffNetYear; year++ {
		scan := tlsscan.ScanAtYear(w.Top, w.Cat, prefixes, year)
		hosts := scan.OffNetHosts(owner)
		n := len(hosts)
		s.Labels = append(s.Labels, fmt.Sprintf("%d", year))
		s.Values = append(s.Values, float64(n))
		if prev >= 0 && n < prev {
			monotone = false
		}
		prev = n
		if year == services.FirstOffNetYear {
			first = n
			firstMedian = medianHostSubs(e, hosts)
		}
		if year == services.LastOffNetYear {
			last = n
			lastMedian = medianHostSubs(e, hosts)
		}
	}
	r.Series = append(r.Series, s)
	r.Values = append(r.Values, Value{
		Name:     "off-net hosts grow monotonically over the window",
		Paper:    "[25]: off-net footprints grew substantially over seven years",
		Measured: fmt.Sprintf("%d (%d) → %d (%d) host networks", first, services.FirstOffNetYear, last, services.LastOffNetYear),
		Pass:     monotone && last >= 3*max(first, 1),
	})
	r.Values = append(r.Values, Value{
		Name:     "rollout reaches smaller hosts over time",
		Paper:    "[25]: expansion beyond the largest eyeballs",
		Measured: fmt.Sprintf("median host size %.0fk → %.0fk subscribers", firstMedian, lastMedian),
		Pass:     last <= first || lastMedian <= firstMedian,
	})
	return r
}

func medianHostSubs(e *Env, hosts []topology.ASN) float64 {
	if len(hosts) == 0 {
		return 0
	}
	subs := make([]float64, 0, len(hosts))
	for _, h := range hosts {
		subs = append(subs, e.W.Top.ASes[h].SubscribersK)
	}
	sort.Float64s(subs)
	return subs[len(subs)/2]
}
