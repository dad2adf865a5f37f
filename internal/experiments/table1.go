package experiments

// Table 1: each ITM component's precision and coverage (T1), and the rows
// that push the users component to the table's desired precision — hourly
// activity (E13), a daily refresh (E16) and day-over-day churn through the
// epoch store (E25).

import (
	"fmt"
	"math"

	"itmap/internal/core"
	"itmap/internal/geo"
	"itmap/internal/mapstore"
	"itmap/internal/measure/cacheprobe"
	"itmap/internal/order"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/world"
)

// RunTable1 reproduces Table 1: for each ITM component, the precision and
// coverage achieved by the current techniques, next to the paper's desired
// granularities.
func (e *Env) RunTable1() *Result {
	r := &Result{ID: "T1", Title: "ITM components: desired vs achieved precision & coverage"}
	w := e.W
	disc := e.Discovery()
	hr := e.HitRates()
	crawl := e.Crawl()
	scan := e.Scan()
	doc := e.Map().Document()

	// Component 1a: finding prefixes with users.
	userPrefixes := w.Users.UserPrefixes()
	foundUser := 0
	for _, p := range userPrefixes {
		if disc.Has(p) {
			foundUser++
		}
	}
	userASes := map[topology.ASN]bool{}
	for _, asn := range w.Top.ASNs() {
		if w.Users.ASUsers(asn) > 0 {
			userASes[asn] = true
		}
	}
	foundASes := 0
	for asn := range disc.FoundASes {
		if userASes[asn] {
			foundASes++
		}
	}
	r.Values = append(r.Values, Value{
		Name:  "finding prefixes with users (network coverage)",
		Paper: "50K of 65K ASes, 6.6M of 8.8M /24s",
		Measured: fmt.Sprintf("%d of %d user ASes, %d of %d user /24s",
			foundASes, len(userASes), foundUser, len(userPrefixes)),
		Pass: float64(foundUser) > 0.5*float64(len(userPrefixes)),
	})
	r.Values = append(r.Values, Value{
		Name:     "finding prefixes with users (precision)",
		Paper:    "/24 prefix, weekly",
		Measured: "/24 prefix, per-TTL-window (sub-daily)",
		Pass:     true,
	})

	// Component 1b: relative activity.
	withRate := 0
	for _, v := range hr.ByPrefix {
		if v > 0 {
			withRate++
		}
	}
	r.Values = append(r.Values, Value{
		Name:  "estimating relative activity",
		Paper: "now: yearly, AS grain, 40K ASes",
		Measured: fmt.Sprintf("hit-rate for %d /24s (hourly-capable), root-log volume for %d ASes",
			withRate, len(crawl.ActivityByResolverAS)),
		Pass: withRate > 0 && len(crawl.ActivityByResolverAS) > 0,
	})

	// Component 2a: mapping services.
	ref := w.Cat.ReferenceCDN
	r.Values = append(r.Values, Value{
		Name:  "mapping services (TLS scans)",
		Paper: "monthly, server-owner grain",
		Measured: fmt.Sprintf("%d serving prefixes, %d owners, reference CDN in %d cities / %d off-net hosts",
			len(scan.Servers), len(scan.ByOwner), len(scan.Locations(ref)), len(scan.OffNetHosts(ref))),
		Pass: len(scan.Servers) > 0 && len(scan.OffNetHosts(ref)) > 0,
	})

	// Component 2b: mapping users to hosts.
	val := core.ValidateMapping(doc, w.Traffic)
	r.Values = append(r.Values, Value{
		Name:  "mapping users to hosts (ECS probing)",
		Paper: "monthly/daily, prefix grain, ECS services",
		Measured: fmt.Sprintf("%d (domain, client-AS) pairs, %.0f%% agree with ground truth",
			val.Checked, val.Agreement*100),
		Pass: val.Checked > 0 && val.Agreement > 0.8,
	})

	// Component 3: routes.
	pp := e.pathPrediction()
	r.Values = append(r.Values, Value{
		Name:  "routes between users and services",
		Paper: "desired daily at <city,AS>; now N/A",
		Measured: fmt.Sprintf("public view predicts %.0f%% of VP→root paths; giant-link visibility %.0f%%→%.0f%% with cloud campaigns",
			pp.publicCorrect*100, (1-pp.giantInvisible)*100, pp.augmentedGiantVisible*100),
		Pass: pp.augmentedGiantVisible > 1-pp.giantInvisible,
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

// RunE16 probes Table 1's desired "Daily" temporal precision for finding
// prefixes with users: re-running discovery on consecutive days should be
// stable for the prefixes that matter (traffic-weighted) while the
// low-activity tail churns — quantifying how often the map must be
// refreshed and how much of each refresh is signal versus flicker.
func (e *Env) RunE16() *Result {
	r := &Result{ID: "E16", Title: "Day-over-day stability of client discovery"}
	w := e.W
	day1 := e.Discovery()
	domains := w.Cat.ECSDomains()
	if len(domains) > probeDomains {
		domains = domains[:probeDomains]
	}
	pb := &cacheprobe.Prober{PR: w.PR, Domains: domains}
	day2, err := pb.DiscoverPrefixes(w.Top, w.Top.AllPrefixes(), 24, discoveryRounds)
	if err != nil {
		r.Values = append(r.Values, Value{Name: "second-day sweep", Paper: "n/a", Measured: err.Error(), Pass: false})
		return r
	}

	inter := 0
	for _, p := range day1.Found {
		if day2.Has(p) {
			inter++
		}
	}
	union := len(day1.Found) + len(day2.Found) - inter
	jaccard := 0.0
	if union > 0 {
		jaccard = float64(inter) / float64(union)
	}

	// Traffic-weighted stability: of the reference-CDN traffic in
	// prefixes discovered at all, how much sits in prefixes found on
	// both days? (Prefixes never found — the public-DNS opt-outs — are a
	// coverage gap, not churn.)
	mx := e.Matrix()
	var everFound, stable float64
	for _, p := range order.Keys(mx.RefCDNByPrefix) {
		on1, on2 := day1.Has(p), day2.Has(p)
		if !on1 && !on2 {
			continue
		}
		b := mx.RefCDNByPrefix[p]
		everFound += b
		if on1 && on2 {
			stable += b
		}
	}
	stableShare := 0.0
	if everFound > 0 {
		stableShare = stable / everFound
	}
	r.Values = append(r.Values, Value{
		Name:     "prefix-set Jaccard across consecutive days",
		Paper:    "desired: daily refresh (Table 1)",
		Measured: pct(jaccard),
		Pass:     jaccard > 0.7,
	})
	r.Values = append(r.Values, Value{
		Name:     "discovered CDN traffic found on both days",
		Paper:    "the prefixes that matter should be stable",
		Measured: fmt.Sprintf("%s (set churn %s)", pct(stableShare), pct(1-jaccard)),
		Pass:     stableShare > 0.95,
	})
	return r
}

// RunE25 checks the paper's premise that a daily refresh suffices (§3.1.2):
// a three-day measurement campaign is ingested into the epoch-versioned
// store, and the store's own Diff must find the users component mostly
// stable from one day to the next (a high prefix Jaccard).
func (e *Env) RunE25() *Result {
	r := &Result{ID: "E25", Title: "Epoch-versioned map store over a multi-day campaign"}
	const days = 3
	st := mapstore.NewStore()
	if err := ingestDays(st, EpochEnvs(e.W, days, 0), MeshSpec{}); err != nil {
		r.Values = append(r.Values, Value{Name: "campaign", Paper: "n/a", Measured: err.Error(), Pass: false})
		return r
	}
	jaccards := make([]float64, 0, days-1)
	minJac := 1.0
	for d := 1; d < st.Len(); d++ {
		dd, err := st.Diff(d-1, d, 0.001)
		if err != nil {
			r.Values = append(r.Values, Value{Name: "diff", Paper: "n/a", Measured: err.Error(), Pass: false})
			return r
		}
		jaccards = append(jaccards, dd.Jaccard)
		if dd.Jaccard < minJac {
			minJac = dd.Jaccard
		}
	}
	r.Values = append(r.Values, Value{
		Name:     "day-over-day prefix Jaccard",
		Paper:    "maps change slowly day to day",
		Measured: fmt.Sprintf("%v", jaccards),
		Pass:     minJac >= 0.9,
	})
	return r
}
