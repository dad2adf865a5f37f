package core

import (
	"bytes"
	"testing"

	"itmap/internal/topology"
)

func mapWith(prefixes []topology.PrefixID, activity map[topology.ASN]float64) *TrafficMap {
	m := &TrafficMap{
		Users: UsersComponent{
			ActivePrefixes: map[topology.PrefixID]bool{},
			ASActivity:     activity,
		},
	}
	for _, p := range prefixes {
		m.Users.ActivePrefixes[p] = true
	}
	return m
}

func TestDiffMapsPrefixChurn(t *testing.T) {
	before := mapWith([]topology.PrefixID{1, 2, 3}, map[topology.ASN]float64{10: 1})
	after := mapWith([]topology.PrefixID{2, 3, 4, 5}, map[topology.ASN]float64{10: 1})
	d := DiffMaps(before, after, 0.01)
	if d.StablePrefixes != 2 {
		t.Errorf("stable %d, want 2", d.StablePrefixes)
	}
	if len(d.PrefixesAppeared) != 2 || d.PrefixesAppeared[0] != 4 {
		t.Errorf("appeared %v", d.PrefixesAppeared)
	}
	if len(d.PrefixesVanished) != 1 || d.PrefixesVanished[0] != 1 {
		t.Errorf("vanished %v", d.PrefixesVanished)
	}
	want := 2.0 / 5.0
	if got := d.Jaccard(); got != want {
		t.Errorf("jaccard %f, want %f", got, want)
	}
}

func TestDiffMapsActivityShifts(t *testing.T) {
	before := mapWith(nil, map[topology.ASN]float64{1: 50, 2: 50})
	after := mapWith(nil, map[topology.ASN]float64{1: 90, 2: 10})
	d := DiffMaps(before, after, 0.05)
	if len(d.ActivityShifts) != 2 {
		t.Fatalf("shifts %v", d.ActivityShifts)
	}
	// Largest first; AS1 gained 0.4.
	if d.ActivityShifts[0].ASN != 1 || d.ActivityShifts[0].Delta() < 0.39 {
		t.Errorf("top shift %+v", d.ActivityShifts[0])
	}
	if d.ActivityShifts[1].Delta() > -0.39 {
		t.Errorf("second shift %+v", d.ActivityShifts[1])
	}
	// High threshold filters everything.
	if got := DiffMaps(before, after, 0.9); len(got.ActivityShifts) != 0 {
		t.Errorf("threshold ignored: %v", got.ActivityShifts)
	}
}

func TestDiffMapsIdentical(t *testing.T) {
	m := mapWith([]topology.PrefixID{7}, map[topology.ASN]float64{3: 5})
	d := DiffMaps(m, m, 0.001)
	if d.Jaccard() != 1 || len(d.ActivityShifts) != 0 ||
		len(d.PrefixesAppeared)+len(d.PrefixesVanished) != 0 {
		t.Errorf("self-diff not empty: %+v", d)
	}
	empty := mapWith(nil, nil)
	if DiffMaps(empty, empty, 0.1).Jaccard() != 1 {
		t.Error("empty maps should be identical")
	}
}

func TestDiffMapsDisjoint(t *testing.T) {
	before := mapWith([]topology.PrefixID{1, 2}, map[topology.ASN]float64{10: 4})
	after := mapWith([]topology.PrefixID{3, 4, 5}, map[topology.ASN]float64{20: 4})
	d := DiffMaps(before, after, 0.01)
	if d.StablePrefixes != 0 {
		t.Errorf("stable %d, want 0", d.StablePrefixes)
	}
	if got := d.Jaccard(); got != 0 {
		t.Errorf("jaccard %f, want 0 for disjoint prefix sets", got)
	}
	if len(d.PrefixesAppeared) != 3 || len(d.PrefixesVanished) != 2 {
		t.Errorf("appeared %v vanished %v", d.PrefixesAppeared, d.PrefixesVanished)
	}
	// The whole share moved from AS 10 to AS 20.
	if len(d.ActivityShifts) != 2 {
		t.Fatalf("shifts %+v", d.ActivityShifts)
	}
	for _, s := range d.ActivityShifts {
		if abs(s.Delta()) != 1 {
			t.Errorf("shift %+v, want full share move", s)
		}
	}

	// One side empty: everything appears, nothing is stable.
	d = DiffMaps(mapWith(nil, nil), after, 0.01)
	if d.StablePrefixes != 0 || len(d.PrefixesAppeared) != 3 || d.Jaccard() != 0 {
		t.Errorf("empty-before diff %+v", d)
	}
}

// TestDiffMapsSelfEmptyProperty pins the property E25 and the store's diff
// endpoint rely on: for any map the measurement pipeline produces,
// Diff(a, a) is empty — even at the smallest reporting threshold — and an
// export→import round trip does not perturb the users component enough to
// register as a diff.
func TestDiffMapsSelfEmptyProperty(t *testing.T) {
	for _, seed := range []int64{1, 24, 31} {
		_, m := buildFullMap(t, seed)
		d := DiffMaps(m, m, 1e-12)
		if d.Jaccard() != 1 || len(d.PrefixesAppeared)+len(d.PrefixesVanished)+len(d.ActivityShifts) != 0 {
			t.Errorf("seed %d: self-diff not empty: %d appeared, %d vanished, %d shifts",
				seed, len(d.PrefixesAppeared), len(d.PrefixesVanished), len(d.ActivityShifts))
		}

		var buf bytes.Buffer
		if err := m.Export(&buf); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		doc, err := ImportDocument(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		d = DiffMaps(m, mapWith(doc.ActivePrefixes, doc.ASActivity), 1e-12)
		if d.Jaccard() != 1 || len(d.PrefixesAppeared)+len(d.PrefixesVanished)+len(d.ActivityShifts) != 0 {
			t.Errorf("seed %d: diff against re-imported map not empty", seed)
		}
	}
}

func TestDiffMapsEndToEnd(t *testing.T) {
	// Two maps from discovery sweeps on different days of the same
	// world: small churn, no large activity shifts.
	w, m1 := buildFullMap(t, 31)
	_ = w
	m2 := m1 // same session; a second day would come from a new sweep
	d := DiffMaps(m1, m2, 0.02)
	if d.Jaccard() != 1 {
		t.Errorf("same map diff jaccard %f", d.Jaccard())
	}
}
