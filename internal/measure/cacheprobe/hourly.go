package cacheprobe

import (
	"math"

	"itmap/internal/dnssim"
	"itmap/internal/faults"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/users"
)

// HourlyProfile is a 24-bucket activity curve recovered from cache probing
// — the "Hourly" temporal precision Table 1 wants for relative activity.
// Prefixes populate caches more often at their users' local evening peak,
// so per-hour hit counts trace the diurnal demand curve.
type HourlyProfile struct {
	// Hits[h] counts cache hits observed during UTC hour h.
	Hits [24]float64
	// Probes[h] counts probes issued during UTC hour h.
	Probes [24]int
	// Failed counts probes lost to transient faults; failures stay in
	// the per-hour denominators, biasing the naive curve downward in
	// hours where the substrate misbehaved.
	Failed int
}

// MeasureHourlyProfile probes the domain for every given prefix (typically
// one AS's prefixes) every interval across one simulated day, bucketing
// hits by UTC hour. Sample r is taken at start + r·interval, for every r
// with r·interval < 24: a cadence that does not divide the day keeps its
// last partial step, and one longer than the day still probes once.
func (pb *Prober) MeasureHourlyProfile(top *topology.Topology, prefixes []topology.PrefixID, domain string, start simtime.Time, interval simtime.Time) (*HourlyProfile, error) {
	if interval <= 0 {
		interval = 15 * simtime.Minute
	}
	hp := &HourlyProfile{}
	opts := dnssim.ProbeOpts{Source: pb.Source}
	grid := users.Every(start, interval, samplesInDay(interval))
	var lookups dnssim.Lookups
	for _, p := range prefixes {
		t := pb.PR.Target(p)
		if t.Home == nil {
			continue
		}
		probe := pb.PR.PrepareHome(&t, domain)
		probe.Over(grid)
		for r := 0; r < grid.Len(); r++ {
			hit, err := probe.AtSlot(r, opts, &lookups)
			h := int(grid.UTCHour(r))
			if err != nil {
				if faults.IsTransient(err) {
					hp.Probes[h]++
					hp.Failed++
					continue
				}
				return nil, err
			}
			hp.Probes[h]++
			if hit {
				hp.Hits[h]++
			}
		}
	}
	lookups.Publish()
	return hp, nil
}

// DayStart is the first sample of day's hourly profile at the given cadence,
// half a window past the day's midnight. The samples midnight + k·interval
// meet a record's TTL windows only at multiples of g = gcd(interval, TTL),
// so a day that starts at midnight puts samples on window edges, where one
// ulp of clock moves a sample into the next window and redraws its cache
// occupancy. Starting g/2 in keeps every sample g/2 from an edge.
func DayStart(day int, interval simtime.Time, ttlSeconds int) simtime.Time {
	g := ttlSeconds
	for b := int(math.Round(float64(interval) * 3600)); b != 0; {
		g, b = b, g%b
	}
	return simtime.Time(24*day) + simtime.Seconds(float64(g)/2)
}

// samplesInDay counts the r ≥ 0 with r·interval < 24, the product as
// users.Every forms it: the quotient is only a first guess, since 24/interval
// can round to either side of a whole number. An interval that is not
// shorter than the day (+Inf and NaN included) leaves sample 0 alone.
func samplesInDay(interval simtime.Time) int {
	if !(interval < 24) {
		return 1
	}
	n := int(24 / float64(interval))
	for simtime.Time(float64(n))*interval < 24 {
		n++
	}
	for n > 1 && simtime.Time(float64(n-1))*interval >= 24 {
		n--
	}
	return n
}

// Rate returns the hit rate in UTC hour h (0 with no probes). Hours wrap.
func (hp *HourlyProfile) Rate(h int) float64 {
	h = ((h % 24) + 24) % 24
	if hp.Probes[h] == 0 {
		return 0
	}
	return hp.Hits[h] / float64(hp.Probes[h])
}

// PeakUTCHour returns the UTC hour with the highest hit rate, smoothing
// over a 3-hour window to suppress per-window noise.
func (hp *HourlyProfile) PeakUTCHour() int {
	best, bestV := 0, -1.0
	for h := 0; h < 24; h++ {
		v := hp.Rate(h-1) + hp.Rate(h) + hp.Rate(h+23)
		if v > bestV {
			best, bestV = h, v
		}
	}
	return best
}

// Swing returns (max − min)/mean over hourly rates — the diurnality of the
// recovered curve.
func (hp *HourlyProfile) Swing() float64 {
	lo, hi, sum, n := 1.0, 0.0, 0.0, 0
	for h := 0; h < 24; h++ {
		if hp.Probes[h] == 0 {
			continue
		}
		r := hp.Rate(h)
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
		sum += r
		n++
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return (hi - lo) / (sum / float64(n))
}

// HourDistance returns the circular distance between two hours (0..12).
func HourDistance(a, b int) int {
	d := (a - b + 48) % 24
	if d > 12 {
		d = 24 - d
	}
	return d
}
