package experiments

import (
	"fmt"

	"itmap/internal/measure/cacheprobe"
	"itmap/internal/order"
)

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

	inter, union := 0, 0
	for p := range day1.Found {
		union++
		if day2.Found[p] {
			inter++
		}
	}
	for p := range day2.Found {
		if !day1.Found[p] {
			union++
		}
	}
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
		if !day1.Found[p] && !day2.Found[p] {
			continue
		}
		b := mx.RefCDNByPrefix[p]
		everFound += b
		if day1.Found[p] && day2.Found[p] {
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
