package core

import (
	"math"
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

// DiffMaps compares two map documents' users components: the active
// prefixes, ascending without duplicates as Normalize leaves them, and the
// per-AS activity. The epoch store's /v1/diff comes through here too. An
// AS's share is its activity over the side's total, summed in ascending ASN
// order so the low bits are the same on every run; a side whose total is
// zero contributes no ASes and all-zero shares. minShift filters activity
// shifts (absolute share change) worth reporting.
func DiffMaps(before, after *MapDocument, minShift float64) *MapDiff {
	bs, as := before.ActivePrefixes, after.ActivePrefixes
	d := &MapDiff{}
	i, j := 0, 0
	for i < len(bs) && j < len(as) {
		switch b, a := bs[i], as[j]; {
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
	d.PrefixesVanished = append(d.PrefixesVanished, bs[i:]...)
	d.PrefixesAppeared = append(d.PrefixesAppeared, as[j:]...)

	beforeAct, afterAct := before.ASActivity, after.ASActivity
	totalBefore, totalAfter := order.SumValues(beforeAct), order.SumValues(afterAct)
	share := func(act map[topology.ASN]float64, total float64, asn topology.ASN) float64 {
		v, ok := act[asn]
		if !ok || total == 0 {
			return 0
		}
		return v / total
	}
	seen := map[topology.ASN]bool{}
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
		shift := ActivityShift{ASN: asn,
			Before: share(beforeAct, totalBefore, asn), After: share(afterAct, totalAfter, asn)}
		if shift.Delta() >= minShift || shift.Delta() <= -minShift {
			d.ActivityShifts = append(d.ActivityShifts, shift)
		}
	}
	sort.Slice(d.ActivityShifts, func(i, j int) bool {
		di, dj := math.Abs(d.ActivityShifts[i].Delta()), math.Abs(d.ActivityShifts[j].Delta())
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
