// Package users models where Internet users are and how active they are:
// the ground truth the paper's ITM component 1 ("Where are users? What are
// their relative activity levels?") tries to estimate. Users live in eyeball
// prefixes (plus small office populations in enterprise/academic prefixes);
// activity follows a diurnal curve phased by the prefix's country timezone.
package users

import (
	"math"

	"itmap/internal/geo"
	"itmap/internal/order"
	"itmap/internal/randx"
	"itmap/internal/simtime"
	"itmap/internal/topology"
)

// Model holds per-prefix user populations and activity parameters.
type Model struct {
	top *topology.Topology

	// PrefixUsers is the number of people using each /24. Prefixes
	// absent from the map host no users (infrastructure, server space).
	PrefixUsers map[topology.PrefixID]float64

	// asUsers caches the per-AS totals.
	asUsers map[topology.ASN]float64
}

// Config tunes the user model.
type Config struct {
	// EnterpriseOfficeUsers is the mean number of office users in an
	// enterprise prefix. They browse (so they appear in DNS) but are a
	// tiny share of activity.
	EnterpriseOfficeUsers float64
	// AcademicUsers is the mean user population of an academic prefix.
	AcademicUsers float64
	// Jitter is the lognormal sigma applied to per-prefix populations.
	Jitter float64
}

// DefaultConfig returns the standard user-model parameters.
func DefaultConfig() Config {
	return Config{EnterpriseOfficeUsers: 60, AcademicUsers: 300, Jitter: 0.6}
}

// Build distributes each eyeball AS's subscribers over its prefixes with
// lognormal jitter and adds small office/campus populations elsewhere.
func Build(top *topology.Topology, cfg Config, rng *randx.Source) *Model {
	m := &Model{
		top:         top,
		PrefixUsers: make(map[topology.PrefixID]float64),
		asUsers:     make(map[topology.ASN]float64),
	}
	for _, asn := range top.ASNs() {
		a := top.ASes[asn]
		switch a.Type {
		case topology.Eyeball:
			if len(a.Prefixes) == 0 {
				continue
			}
			weights := make([]float64, len(a.Prefixes))
			total := 0.0
			for i := range weights {
				weights[i] = rng.Lognormal(0, cfg.Jitter)
				total += weights[i]
			}
			subs := a.SubscribersK * 1000
			for i, p := range a.Prefixes {
				u := subs * weights[i] / total
				m.PrefixUsers[p] = u
				m.asUsers[asn] += u
			}
		case topology.Enterprise:
			for _, p := range a.Prefixes {
				u := cfg.EnterpriseOfficeUsers * rng.Lognormal(0, cfg.Jitter)
				m.PrefixUsers[p] = u
				m.asUsers[asn] += u
			}
		case topology.Academic:
			for _, p := range a.Prefixes {
				u := cfg.AcademicUsers * rng.Lognormal(0, cfg.Jitter)
				m.PrefixUsers[p] = u
				m.asUsers[asn] += u
			}
		}
	}
	return m
}

// UsersIn returns the user population of a prefix (0 for infrastructure).
func (m *Model) UsersIn(p topology.PrefixID) float64 { return m.PrefixUsers[p] }

// ASUsers returns the total users in an AS.
func (m *Model) ASUsers(asn topology.ASN) float64 { return m.asUsers[asn] }

// TotalUsers returns the world user population.
func (m *Model) TotalUsers() float64 {
	return order.SumValues(m.asUsers)
}

// UserPrefixes returns all prefixes with non-zero users, in PrefixID order.
func (m *Model) UserPrefixes() []topology.PrefixID {
	var out []topology.PrefixID
	for _, p := range m.top.AllPrefixes() {
		if m.PrefixUsers[p] > 0 {
			out = append(out, p)
		}
	}
	return out
}

// DiurnalFactor returns the activity multiplier at a local hour-of-day:
// 1.0 at the evening peak (20:00), ~0.3 at the 08:00-12h-opposite trough.
// Router traffic, DNS query rates, and demand all follow this curve, which
// is what makes IP-ID velocities diurnal (§3.1.3).
func DiurnalFactor(localHour float64) float64 {
	s := (1 + math.Cos(2*math.Pi*(localHour-20)/24)) / 2
	return 0.3 + 0.7*s
}

// DiurnalMean is the day-average of DiurnalFactor.
const DiurnalMean = 0.65

// Activity is the time-invariant half of one prefix's activity curve: its
// population and the timezone that phases it. Campaigns that sample a prefix
// at many times resolve it once and call At per sample. It keeps the
// country's UTC offset, not the country: a probe copies its Activity, and
// the offset is all the curve reads.
type Activity struct {
	// Users is the prefix's population.
	Users float64

	zone
}

// Activity resolves a prefix's population and timezone.
func (m *Model) Activity(p topology.PrefixID) Activity {
	u := m.PrefixUsers[p]
	if u == 0 {
		return Activity{}
	}
	c, err := geo.CountryByCode(m.top.PrefixCity[p].Country)
	return Activity{Users: u, zone: zone{local: err == nil, offset: c.UTCOffsetHours}}
}

// At returns the instantaneous activity level (active users) at simulated
// time t.
func (a Activity) At(t simtime.Time) float64 {
	if a.Users == 0 {
		return 0
	}
	return a.Users * DiurnalFactor(a.localHour(t.UTCHour()))
}
