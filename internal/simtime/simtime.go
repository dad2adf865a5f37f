// Package simtime provides the simulator's clock. All simulated activity —
// user demand, DNS cache expiry, IP-ID counters, measurement campaigns —
// is parameterized by a simulated time; nothing reads the wall clock, so
// runs are reproducible and fast.
package simtime

import "math"

// Time is simulated time in hours since the simulation epoch (UTC).
type Time float64

// Convenient durations, in hours.
const (
	Minute Time = 1.0 / 60
	Hour   Time = 1
	Day    Time = 24
	Week   Time = 168
)

// UTCHour returns the hour-of-day in [0, 24).
func (t Time) UTCHour() float64 {
	h := math.Mod(float64(t), 24)
	if h < 0 {
		h += 24
	}
	return h
}

// DayIndex returns the whole days elapsed since the epoch.
func (t Time) DayIndex() int { return int(math.Floor(float64(t) / 24)) }

// Add returns t shifted by d.
func (t Time) Add(d Time) Time { return t + d }

// Before reports whether t is earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// Seconds converts a duration expressed in seconds to simtime.
func Seconds(s float64) Time { return Time(s / 3600) }
