package users

import (
	"itmap/internal/geo"
	"itmap/internal/simtime"
)

// Grid is a campaign's sampling grid: a fixed list of instants, plus the
// DiurnalFactor of every ⟨timezone, instant⟩, evaluated at most once. A
// campaign samples every prefix at the same instants and the factor depends
// only on the prefix's timezone, so a sweep of a million probes needs a few
// hundred cosines. A timezone's row is filled on first use with the
// expression Activity.At evaluates, at the same arguments: reading it is
// bit-identical to calling At. A Grid is not safe for concurrent use;
// parallel sweeps build one per shard.
type Grid struct {
	times []simtime.Time
	utc   []float64 // times[r].UTCHour()
	rows  map[zone][]float64
}

// zone is the part of an Activity that phases its curve: the UTC offset of
// the prefix's country, or, when the country is unknown, UTC itself.
type zone struct {
	local  bool // country resolved; otherwise the curve runs on UTC
	offset float64
}

// localHour phases a UTC hour-of-day by the zone.
func (z zone) localHour(utcHour float64) float64 {
	if z.local {
		return geo.LocalHourAt(z.offset, utcHour)
	}
	return utcHour
}

// NewGrid returns the grid of the given instants.
func NewGrid(times []simtime.Time) *Grid {
	g := &Grid{times: times, utc: make([]float64, len(times)), rows: map[zone][]float64{}}
	for r, t := range times {
		g.utc[r] = t.UTCHour()
	}
	return g
}

// Every returns the grid of n instants one interval apart from start.
// Instant r is start + r·interval, by multiplication: a running sum of a
// non-dyadic interval drifts, and the drifted last instant of a day can land
// on the wrong side of midnight.
func Every(start, interval simtime.Time, n int) *Grid {
	times := make([]simtime.Time, n)
	for r := range times {
		times[r] = start + simtime.Time(float64(r))*interval
	}
	return NewGrid(times)
}

// Len returns the number of instants.
func (g *Grid) Len() int { return len(g.times) }

// Time returns instant r.
func (g *Grid) Time(r int) simtime.Time { return g.times[r] }

// UTCHour returns instant r's hour-of-day in [0, 24).
func (g *Grid) UTCHour(r int) float64 { return g.utc[r] }

// Factors returns DiurnalFactor at the prefix's local hour at every instant
// of g, so that a.At(g.Time(r)) == a.Users * a.Factors(g)[r], bit for bit.
// The row is shared by every prefix of the timezone: callers must not
// modify it. A prefix without users has no curve and gets nil.
func (a Activity) Factors(g *Grid) []float64 {
	if a.Users == 0 {
		return nil
	}
	row, ok := g.rows[a.zone]
	if !ok {
		row = make([]float64, len(g.utc))
		for r, h := range g.utc {
			row[r] = DiurnalFactor(a.localHour(h))
		}
		g.rows[a.zone] = row
	}
	return row
}
