// Package botfilter addresses the §3.1.2 open challenge: "A key challenge
// is extending them to find Internet users (as opposed to bots and other
// non-human clients)". The discriminating signal is rhythm: human demand
// follows the local diurnal curve, automation runs around the clock.
// Per-prefix hourly cache-hit profiles over several days and domains —
// inverted into query-rate estimates — separate the two with public
// measurements only.
package botfilter

import (
	"itmap/internal/geo"
	"itmap/internal/measure/cacheprobe"
	"itmap/internal/simtime"
	"itmap/internal/topology"
)

// The quiet and busy local-time windows, read off the aggregate diurnal
// activity curve (users.DiurnalFactor peaks at 20:00 local and bottoms out
// around 08:00). The windows come from the curve the map itself recovers
// (E13), not from assumptions about sleep schedules.
const (
	troughStart, troughEnd = 6, 10
	peakStart, peakEnd     = 18, 22
)

// Verdict classifies one prefix.
type Verdict struct {
	Prefix topology.PrefixID
	// NightRatio is the estimated query rate in the local activity
	// trough relative to the local peak. Human prefixes sit well below
	// 1; automation sits near 1.
	NightRatio float64
	// Human is the classification: diurnal activity means people.
	Human bool
	// Observed is false when the prefix produced too little signal to
	// classify.
	Observed bool
}

// Classifier runs the campaigns and applies the rhythm threshold.
type Classifier struct {
	Prober *cacheprobe.Prober
	// Domains are the probed domains (popular, ECS-supporting). A small
	// population uses only some services, so probing several domains
	// keeps most prefixes observable; popularity diversity also ensures
	// every prefix has at least one domain in the informative
	// (non-saturated) occupancy regime.
	Domains []string
	// Days of probing; more days average out window noise.
	Days int
	// Interval between probes of the same prefix.
	Interval simtime.Time
	// RatioThreshold separates human (trough/peak rate ratio below)
	// from bot (above).
	RatioThreshold float64
	// MinPeakHits is the evidence floor: fewer peak-window hits than
	// this and the prefix stays unclassified.
	MinPeakHits float64
}

// NewClassifier returns a classifier with sensible defaults: three days of
// probing every five minutes across the domains.
func NewClassifier(pb *cacheprobe.Prober, domains []string) *Classifier {
	return &Classifier{
		Prober:         pb,
		Domains:        domains,
		Days:           3,
		Interval:       5 * simtime.Minute,
		RatioThreshold: 0.62,
		MinPeakHits:    8,
	}
}

// Classify measures and classifies one prefix. Per domain, hourly hit
// rates are inverted into query-rate estimates (the domain's TTL is public:
// it is in every DNS response); domains cached around the clock for this
// prefix are saturated, hence uninformative, and are skipped — busy
// prefixes draw their signal from less popular domains, small prefixes
// from the popular ones.
func (c *Classifier) Classify(top *topology.Topology, p topology.PrefixID) (Verdict, error) {
	// The prefix's timezone comes from public geolocation of its
	// address space.
	offset := 0.0
	if city, ok := top.PrefixCity[p]; ok {
		if country, err := geo.CountryByCode(city.Country); err == nil {
			offset = country.UTCOffsetHours
		}
	}
	var troughRate, peakRate, peakHits float64
	for _, domain := range c.Domains {
		ttl := 60
		if svc, ok := c.Prober.PR.Catalog().ByDomain(domain); ok {
			ttl = svc.TTLSeconds
		}
		merged := &cacheprobe.HourlyProfile{}
		for day := 0; day < max(c.Days, 1); day++ {
			hp, err := c.Prober.MeasureHourlyProfile(top, []topology.PrefixID{p},
				domain, cacheprobe.DayStart(day, c.Interval, ttl), c.Interval)
			if err != nil {
				return Verdict{Prefix: p}, err
			}
			for h := 0; h < 24; h++ {
				merged.Hits[h] += hp.Hits[h]
				merged.Probes[h] += hp.Probes[h]
			}
		}
		th, tp := windowCounts(merged, offset, troughStart, troughEnd)
		ph, pp := windowCounts(merged, offset, peakStart, peakEnd)
		if pp == 0 || ph/pp > 0.9 {
			continue // silent or saturated: no signal either way
		}
		troughRate += cacheprobe.RateFromHitRate(th/maxf(tp, 1), int(tp), ttl)
		peakRate += cacheprobe.RateFromHitRate(ph/maxf(pp, 1), int(pp), ttl)
		peakHits += ph
	}
	v := Verdict{Prefix: p}
	if peakHits < c.MinPeakHits || peakRate <= 0 {
		return v, nil
	}
	v.Observed = true
	v.NightRatio = troughRate / peakRate
	v.Human = v.NightRatio < c.RatioThreshold
	return v, nil
}

// windowCounts sums hits and probes in the local-time window [fromH, toH).
func windowCounts(hp *cacheprobe.HourlyProfile, utcOffset float64, fromH, toH int) (hits, probes float64) {
	for lh := fromH; lh < toH; lh++ {
		utc := ((lh-int(utcOffset))%24 + 24) % 24
		hits += hp.Hits[utc]
		probes += float64(hp.Probes[utc])
	}
	return hits, probes
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Eval scores classifications against ground truth.
type Eval struct {
	// Precision: of prefixes called human, how many are.
	Precision float64
	// Recall: of human prefixes observed, how many were called human.
	Recall float64
	// BotRecall: of bot prefixes observed, how many were called bots.
	BotRecall float64
	Observed  int
}

// Evaluate compares verdicts to a ground-truth bot oracle.
func Evaluate(verdicts []Verdict, isBot func(topology.PrefixID) bool) Eval {
	var tpHuman, fpHuman, fnHuman, tpBot, fnBot float64
	observed := 0
	for _, v := range verdicts {
		if !v.Observed {
			continue
		}
		observed++
		bot := isBot(v.Prefix)
		switch {
		case v.Human && !bot:
			tpHuman++
		case v.Human && bot:
			fpHuman++
			fnBot++
		case !v.Human && !bot:
			fnHuman++
		case !v.Human && bot:
			tpBot++
		}
	}
	ev := Eval{Observed: observed}
	if tpHuman+fpHuman > 0 {
		ev.Precision = tpHuman / (tpHuman + fpHuman)
	}
	if tpHuman+fnHuman > 0 {
		ev.Recall = tpHuman / (tpHuman + fnHuman)
	}
	if tpBot+fnBot > 0 {
		ev.BotRecall = tpBot / (tpBot + fnBot)
	}
	return ev
}
