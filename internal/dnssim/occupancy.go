package dnssim

import "math"

// The occupancy decision without exp. A cache probe is a hit when its
// uniform draw u falls under the occupancy 1 − exp(−x), x = rate·TTL, and a
// sweep asks that millions of times. occupiedDraw answers most of them from
// a table of brackets instead: for x in [k/4, (k+1)/4) the occupancy lies
// between the bracket's two edges, so a draw below the lower edge is a hit
// and one at or above the upper edge a miss whatever x is inside. Only a
// draw between the edges pays for the exp.
//
// The decision is u < 1-math.Exp(-x), bit for bit, by construction:
//
//   - x·4 is exact in binary floating point, so k = ⌊4x⌋ and x lies in
//     [k/4, (k+1)/4) exactly, and the edges k/4 are exact too.
//   - math.Exp is accurate to within 1 ulp, and 1 − e rounds once more, so
//     the computed occupancy at any x in [0, 40) is within 2⁻⁵² + 2⁻⁵³
//     (under 4e-16) of the true 1 − e⁻ˣ; the table's edges are computed
//     with the same expression and carry the same error. The true
//     occupancy increases with x, so over the bracket the computed one
//     stays within 8e-16 of the interval between the two computed edges.
//   - Each edge is widened by occupancySlack = 1e-12, thousands of times
//     that error, so u below the lower edge is below the computed
//     occupancy of every x in the bracket, and u at or above the upper
//     edge is at or above it.
//   - For x ≥ 40, e⁻ˣ < 4.3e-18 is under half an ulp of 1, so the computed
//     occupancy is exactly 1 and the decision is u < 1 (+Inf included).
//   - Any other x — negative, NaN — falls through to the expression itself.
//
// TestModelOccupancyFastPath checks the decision against the expression at
// every bracket edge, at the special values and at ten million seeded
// pairs.
const (
	occupancySteps = 4  // brackets per unit of x
	occupancyMax   = 40 // from here on the occupancy rounds to 1
	occupancySlack = 1e-12
)

// occupancyLo[k] and occupancyHi[k] are the widened edges of bracket k,
// x in [k/4, (k+1)/4).
var occupancyLo, occupancyHi = occupancyBrackets()

func occupancyBrackets() (lo, hi [occupancyMax * occupancySteps]float64) {
	for k := range lo {
		lo[k] = 1 - math.Exp(-float64(k)/occupancySteps) - occupancySlack
		hi[k] = 1 - math.Exp(-float64(k+1)/occupancySteps) + occupancySlack
	}
	return lo, hi
}

// occupiedDraw reports u < 1-math.Exp(-x): whether a draw u lands in a
// cache occupied with probability 1 − exp(−x).
func occupiedDraw(u, x float64) bool {
	switch {
	case x >= 0 && x < occupancyMax:
		k := int(x * occupancySteps)
		if u < occupancyLo[k] {
			return true
		}
		if u >= occupancyHi[k] {
			return false
		}
	case x >= occupancyMax:
		return u < 1
	}
	return u < 1-math.Exp(-x)
}
