package core

import (
	"sort"

	"itmap/internal/order"
	"itmap/internal/topology"
)

// MapDiff summarizes how the users component changed between two map
// builds — the longitudinal view Table 1's "Daily" refresh target implies.
// Infrastructure churn (servers appearing/moving) is visible by diffing
// TLS scans; this diff covers the activity side.
type MapDiff struct {
	// PrefixesAppeared lists /24s active now but not before.
	PrefixesAppeared []topology.PrefixID
	// PrefixesVanished lists /24s active before but not now.
	PrefixesVanished []topology.PrefixID
	// StablePrefixes counts /24s active in both.
	StablePrefixes int
	// ActivityShifts lists ASes whose estimated activity share moved by
	// more than the threshold, largest shift first.
	ActivityShifts []ActivityShift
}

// ActivityShift is one AS's share change.
type ActivityShift struct {
	ASN    topology.ASN
	Before float64 // share of total activity before
	After  float64
}

// Delta returns the signed share change.
func (s ActivityShift) Delta() float64 { return s.After - s.Before }

// DiffMaps compares two maps' users components. minShift filters activity
// shifts (absolute share change) worth reporting.
func DiffMaps(before, after *TrafficMap, minShift float64) *MapDiff {
	return DiffUsers(order.Keys(before.Users.ActivePrefixes), order.Keys(after.Users.ActivePrefixes),
		before.Users.ASActivity, after.Users.ASActivity, minShift)
}

// DiffUsers is the diff over the two facts it reads from each side: the
// active prefixes, ascending without duplicates, and the per-AS activity.
// DiffMaps and the epoch store's /v1/diff both come through here. An AS's
// share is its activity over the side's total, summed in ascending ASN
// order so the low bits are the same on every run; a side whose total is
// zero contributes no ASes and all-zero shares.
func DiffUsers[K ~uint32](beforeActives, afterActives []topology.PrefixID, beforeAct, afterAct map[K]float64, minShift float64) *MapDiff {
	d := &MapDiff{}
	i, j := 0, 0
	for i < len(beforeActives) && j < len(afterActives) {
		switch b, a := beforeActives[i], afterActives[j]; {
		case b == a:
			d.StablePrefixes++
			i++
			j++
		case b < a:
			d.PrefixesVanished = append(d.PrefixesVanished, b)
			i++
		default:
			d.PrefixesAppeared = append(d.PrefixesAppeared, a)
			j++
		}
	}
	d.PrefixesVanished = append(d.PrefixesVanished, beforeActives[i:]...)
	d.PrefixesAppeared = append(d.PrefixesAppeared, afterActives[j:]...)

	totalBefore, totalAfter := order.SumValues(beforeAct), order.SumValues(afterAct)
	share := func(act map[K]float64, total float64, asn K) float64 {
		v, ok := act[asn]
		if !ok || total == 0 {
			return 0
		}
		return v / total
	}
	seen := map[K]bool{}
	if totalBefore != 0 {
		for asn := range beforeAct {
			seen[asn] = true
		}
	}
	if totalAfter != 0 {
		for asn := range afterAct {
			seen[asn] = true
		}
	}
	for asn := range seen {
		shift := ActivityShift{ASN: topology.ASN(asn),
			Before: share(beforeAct, totalBefore, asn), After: share(afterAct, totalAfter, asn)}
		if shift.Delta() >= minShift || shift.Delta() <= -minShift {
			d.ActivityShifts = append(d.ActivityShifts, shift)
		}
	}
	sort.Slice(d.ActivityShifts, func(i, j int) bool {
		di, dj := abs(d.ActivityShifts[i].Delta()), abs(d.ActivityShifts[j].Delta())
		if di != dj {
			return di > dj
		}
		return d.ActivityShifts[i].ASN < d.ActivityShifts[j].ASN
	})
	return d
}

// Jaccard returns the active-prefix set similarity between the two maps.
func (d *MapDiff) Jaccard() float64 {
	union := d.StablePrefixes + len(d.PrefixesAppeared) + len(d.PrefixesVanished)
	if union == 0 {
		return 1
	}
	return float64(d.StablePrefixes) / float64(union)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
