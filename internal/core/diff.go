package core

import (
	"slices"
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
	d := &MapDiff{}
	for p := range after.Users.ActivePrefixes {
		if before.Users.ActivePrefixes[p] {
			d.StablePrefixes++
		} else {
			d.PrefixesAppeared = append(d.PrefixesAppeared, p)
		}
	}
	for p := range before.Users.ActivePrefixes {
		if !after.Users.ActivePrefixes[p] {
			d.PrefixesVanished = append(d.PrefixesVanished, p)
		}
	}
	slices.Sort(d.PrefixesAppeared)
	slices.Sort(d.PrefixesVanished)

	shares := func(m *TrafficMap) map[topology.ASN]float64 {
		total := order.SumValues(m.Users.ASActivity)
		out := map[topology.ASN]float64{}
		if total == 0 {
			return out
		}
		for asn, v := range m.Users.ASActivity {
			out[asn] = v / total
		}
		return out
	}
	sb, sa := shares(before), shares(after)
	seen := map[topology.ASN]bool{}
	for asn := range sb {
		seen[asn] = true
	}
	for asn := range sa {
		seen[asn] = true
	}
	for asn := range seen {
		shift := ActivityShift{ASN: asn, Before: sb[asn], After: sa[asn]}
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
