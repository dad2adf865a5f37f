package dnssim

import (
	"math"
	"testing"

	"itmap/internal/randx"
)

// occupancyByExp is the occupancy decision as the law writes it, the
// reference the bracketed decision must equal.
func occupancyByExp(u, x float64) bool { return u < 1-math.Exp(-x) }

// nearby returns v and the n floats on either side of it.
func nearby(v float64, n int) []float64 {
	out := []float64{v}
	lo, hi := v, v
	for i := 0; i < n; i++ {
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		out = append(out, lo, hi)
	}
	return out
}

// TestModelOccupancyFastPath: occupiedDraw decides every draw as
// u < 1-math.Exp(-x) does — at every bracket edge, four ulps to either side
// in both u and x; at the special values of x; and at ten million seeded
// pairs — and it decides most of the seeded ones without the exp.
func TestModelOccupancyFastPath(t *testing.T) {
	checked := 0
	check := func(u, x float64) {
		checked++
		if got, want := occupiedDraw(u, x), occupancyByExp(u, x); got != want {
			t.Fatalf("u=%v (%016x) x=%v (%016x): bracketed decision %v, the law's %v",
				u, math.Float64bits(u), x, math.Float64bits(x), got, want)
		}
	}
	// The edges: x at each k/4 up to the end of the table and one past it,
	// and u at the occupancy there and at both widened edges of the
	// brackets on either side.
	for k := 0; k <= occupancyMax*occupancySteps+1; k++ {
		edge := float64(k) / occupancySteps
		us := []float64{1 - math.Exp(-edge)}
		for _, j := range []int{k - 1, k} {
			if j >= 0 && j < len(occupancyLo) {
				us = append(us, occupancyLo[j], occupancyHi[j])
			}
		}
		for _, x := range nearby(edge, 4) {
			for _, u := range us {
				for _, u := range nearby(u, 4) {
					check(u, x)
				}
			}
		}
	}
	// The special values, against draws across the unit interval and
	// around each one's own occupancy.
	for _, x := range []float64{0, math.Copysign(0, -1), 37.4, 37.5, 40, math.Inf(1), math.NaN(), -1, math.Inf(-1)} {
		for _, u := range []float64{0, 1e-300, 0.25, 0.5, 0.999, 1 - 1.0/(1<<53), 1} {
			check(u, x)
		}
		for _, u := range nearby(1-math.Exp(-x), 4) {
			check(u, x)
		}
	}
	// Seeded pairs: x uniform over the table and a little past it, or
	// log-uniform from 1e-9 to 50, as cache-occupancy rates spread.
	const pairs = 10_000_000
	slow := 0
	for i := uint64(0); i < pairs; i++ {
		u := randx.Unit(randx.Hash64(0x0cc, i, 0))
		v := randx.Unit(randx.Hash64(0x0cc, i, 1))
		x := 45 * v
		if i%2 == 1 {
			x = 1e-9 * math.Pow(5e10, v)
		}
		if x >= 0 && x < occupancyMax {
			if k := int(x * occupancySteps); u >= occupancyLo[k] && u < occupancyHi[k] {
				slow++
			}
		}
		check(u, x)
	}
	if slow > pairs/5 {
		t.Errorf("%d of %d seeded draws needed the exp: the brackets decide too few", slow, pairs)
	}
	t.Logf("%d decisions checked; %d of the %d seeded draws fell inside a bracket", checked, slow, pairs)
}
