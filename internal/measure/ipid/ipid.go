// Package ipid implements the paper's §3.1.3 IP-ID velocity methodology:
// many routers source IP ID values from a global incrementing counter whose
// velocity tracks the traffic they forward (e.g. via flow-export packets).
// By pinging a router interface repeatedly and differencing the returned
// 16-bit IDs (mod 2^16), one estimates the counter velocity; its diurnal
// swing estimates relative user-traffic levels through the router.
//
// The Meter half of the package is substrate (how simulated routers derive
// their counters from ground-truth loads); the Probe half is the
// measurement tool, which sees only 16-bit counter samples.
package ipid

import (
	"math"

	"itmap/internal/geo"
	"itmap/internal/randx"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/traffic"
	"itmap/internal/users"
)

// counterMod is the IP-ID space size.
const counterMod = 65536

// Meter models every AS border router's IP-ID counter. A router's counter
// advances proportionally to the AS's forwarded traffic, phased by the AS's
// local time, plus a small constant background rate.
type Meter struct {
	top  *topology.Topology
	seed uint64

	// scale converts bytes/hour to counter increments/hour, normalized
	// so the busiest router peaks near targetPeakRate.
	scale float64
	// BackgroundRate is the constant counter advance (control-plane
	// chatter) in increments/hour.
	BackgroundRate float64

	load   map[topology.ASN]float64 // daily bytes through the AS
	offset map[topology.ASN]float64 // UTC offset of the AS's location
}

// targetPeakRate keeps velocities comfortably measurable with sub-hour
// sampling (wrap takes > 3h at peak).
const targetPeakRate = 18000.0

// NewMeter builds router counters from a ground-truth matrix.
func NewMeter(top *topology.Topology, mx *traffic.Matrix, seed int64) *Meter {
	m := &Meter{
		top:            top,
		seed:           uint64(seed),
		BackgroundRate: 40,
		load:           map[topology.ASN]float64{},
		offset:         map[topology.ASN]float64{},
	}
	maxHourly := 0.0
	for _, asn := range top.ASNs() {
		l := mx.ASLoad[asn]
		m.load[asn] = l
		if h := l / 24; h > maxHourly {
			maxHourly = h
		}
		city := top.PrimaryCity(asn)
		if c, err := geo.CountryByCode(city.Country); err == nil {
			m.offset[asn] = c.UTCOffsetHours
		}
	}
	if maxHourly > 0 {
		m.scale = targetPeakRate / (maxHourly / users.DiurnalMean)
	}
	return m
}

// cumDiurnal is the antiderivative of DiurnalFactor over continuous local
// hours: ∫(0.65 + 0.35·cos(2π(h−20)/24))dh.
func cumDiurnal(h float64) float64 {
	return 0.65*h + 0.35*24/(2*math.Pi)*math.Sin(2*math.Pi*(h-20)/24)
}

// CounterAt returns what a ping to the AS's router interface reveals at
// time t: the low 16 bits of the counter.
func (m *Meter) CounterAt(asn topology.ASN, t simtime.Time) uint16 {
	local := float64(t) + m.offset[asn]
	cum := m.BackgroundRate*float64(t) +
		m.scale*m.load[asn]/24*(cumDiurnal(local)-cumDiurnal(m.offset[asn]))/users.DiurnalMean
	base := float64(randx.Hash64(m.seed, 0x1b1d, uint64(asn)) % counterMod)
	return uint16(int64(base+cum) % counterMod)
}

// Sample is one velocity estimate.
type Sample struct {
	T    simtime.Time
	Rate float64 // estimated increments/hour
}

// ProbeVelocity pings the router every interval in [start, end) and returns
// per-interval velocity estimates, handling 16-bit wraparound. The interval
// must be short enough that the counter advances < 2^16 between pings.
func ProbeVelocity(m *Meter, asn topology.ASN, start, end, interval simtime.Time) []Sample {
	if interval <= 0 {
		interval = 30 * simtime.Minute
	}
	var out []Sample
	prev := m.CounterAt(asn, start)
	for t := start + interval; t < end; t += interval {
		cur := m.CounterAt(asn, t)
		delta := (int(cur) - int(prev) + counterMod) % counterMod
		out = append(out, Sample{T: t, Rate: float64(delta) / float64(interval)})
		prev = cur
	}
	return out
}

// DiurnalitySwing summarizes how diurnal a velocity series is:
// (max − min) / mean over hourly buckets. Flat series score ~0; fully
// diurnal routers score well above 0.5.
func DiurnalitySwing(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var hourly [24]float64
	var counts [24]int
	for _, s := range samples {
		h := int(s.T.UTCHour())
		hourly[h] += s.Rate
		counts[h]++
	}
	lo, hi, sum, n := math.Inf(1), 0.0, 0.0, 0
	for h := 0; h < 24; h++ {
		if counts[h] == 0 {
			continue
		}
		v := hourly[h] / float64(counts[h])
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
		sum += v
		n++
	}
	if n == 0 || sum == 0 {
		return 0
	}
	mean := sum / float64(n)
	return (hi - lo) / mean
}

// MeanRate returns the average estimated velocity.
func MeanRate(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	total := 0.0
	for _, s := range samples {
		total += s.Rate
	}
	return total / float64(len(samples))
}
