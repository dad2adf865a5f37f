package users

import (
	"math"
	"testing"

	"itmap/internal/geo"
	"itmap/internal/randx"
	"itmap/internal/simtime"
	"itmap/internal/topology"
)

func build(t testing.TB) (*topology.Topology, *Model) {
	t.Helper()
	top := topology.Generate(topology.TinyGenConfig(1))
	return top, Build(top, DefaultConfig(), randx.New(2))
}

func TestUsersMatchSubscribers(t *testing.T) {
	top, m := build(t)
	for _, asn := range top.ASesOfType(topology.Eyeball) {
		a := top.ASes[asn]
		want := a.SubscribersK * 1000
		got := m.ASUsers(asn)
		if math.Abs(got-want) > 1e-6*want {
			t.Fatalf("AS %d users %.0f != subscribers %.0f", asn, got, want)
		}
		for _, p := range a.Prefixes {
			if m.UsersIn(p) <= 0 {
				t.Fatalf("eyeball prefix %v has no users", p)
			}
		}
	}
}

func TestInfrastructureHasNoUsers(t *testing.T) {
	top, m := build(t)
	for _, ty := range []topology.ASType{topology.Tier1, topology.Hypergiant, topology.Cloud} {
		for _, asn := range top.ASesOfType(ty) {
			if u := m.ASUsers(asn); u != 0 {
				t.Fatalf("%v AS %d has %f users", ty, asn, u)
			}
		}
	}
}

func TestEnterprisesSmall(t *testing.T) {
	top, m := build(t)
	var entTotal, eyeballTotal float64
	for _, asn := range top.ASesOfType(topology.Enterprise) {
		entTotal += m.ASUsers(asn)
	}
	for _, asn := range top.ASesOfType(topology.Eyeball) {
		eyeballTotal += m.ASUsers(asn)
	}
	if entTotal <= 0 {
		t.Fatal("enterprises should host some office users")
	}
	if entTotal > 0.05*eyeballTotal {
		t.Errorf("enterprise users (%.0f) not small vs eyeballs (%.0f)", entTotal, eyeballTotal)
	}
}

func TestDiurnalFactorShape(t *testing.T) {
	peak := DiurnalFactor(20)
	trough := DiurnalFactor(8)
	if math.Abs(peak-1.0) > 1e-9 {
		t.Errorf("peak = %f, want 1", peak)
	}
	if math.Abs(trough-0.3) > 1e-9 {
		t.Errorf("trough = %f, want 0.3", trough)
	}
	// Mean over the day is 0.65.
	total := 0.0
	n := 2400
	for i := 0; i < n; i++ {
		total += DiurnalFactor(24 * float64(i) / float64(n))
	}
	if mean := total / float64(n); math.Abs(mean-0.65) > 0.001 {
		t.Errorf("diurnal mean = %f, want 0.65", mean)
	}
}

func TestActivityPhasedByTimezone(t *testing.T) {
	top, m := build(t)
	// Find a Japanese prefix (UTC+9): peak activity at 11:00 UTC.
	var jp topology.PrefixID
	found := false
	for _, asn := range top.ASesOfType(topology.Eyeball) {
		a := top.ASes[asn]
		if a.Country == "JP" {
			jp = a.Prefixes[0]
			found = true
			break
		}
	}
	if !found {
		t.Skip("no JP eyeball in tiny world")
	}
	atPeak := m.Activity(jp).At(simtime.Time(11))
	atTrough := m.Activity(jp).At(simtime.Time(23))
	if atPeak <= atTrough {
		t.Errorf("JP activity at 11 UTC (%f) should exceed 23 UTC (%f)", atPeak, atTrough)
	}
	if math.Abs(atPeak-m.UsersIn(jp)) > 1e-6*atPeak {
		t.Errorf("peak activity %f != population %f", atPeak, m.UsersIn(jp))
	}
}

func TestUserPrefixesAndTotals(t *testing.T) {
	top, m := build(t)
	ps := m.UserPrefixes()
	if len(ps) == 0 {
		t.Fatal("no user prefixes")
	}
	total := 0.0
	for _, p := range ps {
		total += m.UsersIn(p)
	}
	if math.Abs(total-m.TotalUsers()) > 1e-6*total {
		t.Errorf("prefix sum %f != total %f", total, m.TotalUsers())
	}
	_ = top
}

// atBeforeGrids is Activity.At as it stood before sampling grids.
func atBeforeGrids(a Activity, t simtime.Time) float64 {
	if a.Users == 0 {
		return 0
	}
	h := t.UTCHour()
	if a.local {
		h = geo.LocalHourAt(a.offset, h)
	}
	return a.Users * DiurnalFactor(h)
}

// TestGridFactorsMatchAt: for every prefix of the world (unpopulated ones
// included) and a population in no country, Activity.At and the grid's row
// both give, bit for bit, what At gave before grids existed — on a dyadic
// cadence, on one that is not, and at negative times.
func TestGridFactorsMatchAt(t *testing.T) {
	top, m := build(t)
	acts := []Activity{{Users: 12}, {}}
	for _, p := range top.AllPrefixes() {
		acts = append(acts, m.Activity(p))
	}
	grids := []*Grid{
		Every(0, 15*simtime.Minute, 96),
		Every(24.5, 7*simtime.Minute, 206),
		NewGrid([]simtime.Time{-30.25, -1e-9, 0, 23.999999999999996, 1e6 + 1.0/3}),
	}
	zones := map[zone]bool{}
	for _, g := range grids {
		for _, a := range acts {
			row := a.Factors(g)
			if (row == nil) != (a.Users == 0) {
				t.Fatalf("Factors of a population of %v: row %v", a.Users, row)
			}
			zones[a.zone] = true
			for r := 0; r < g.Len(); r++ {
				at := g.Time(r)
				want := math.Float64bits(atBeforeGrids(a, at))
				if got := math.Float64bits(a.At(at)); got != want {
					t.Fatalf("At(%v) = %x, was %x", at, got, want)
				}
				if row == nil {
					continue
				}
				if got := math.Float64bits(a.Users * row[r]); got != want {
					t.Fatalf("slot %d (t=%v): Users*row = %x, At was %x", r, at, got, want)
				}
				if g.UTCHour(r) != at.UTCHour() {
					t.Fatalf("slot %d: UTCHour %v, want %v", r, g.UTCHour(r), at.UTCHour())
				}
			}
		}
		if len(g.rows) > len(zones) {
			t.Errorf("grid holds %d rows for %d timezones", len(g.rows), len(zones))
		}
	}
	if len(zones) < 4 {
		t.Errorf("only %d timezones exercised", len(zones))
	}
}

// TestEveryMultiplies: instant r is start + r·interval exactly, so a day of
// five-minute steps ends at 23:55 and never drifts into a 289th sample.
func TestEveryMultiplies(t *testing.T) {
	g := Every(0, 5*simtime.Minute, 288)
	for r := 0; r < g.Len(); r++ {
		if want := simtime.Time(float64(r)) * (5 * simtime.Minute); g.Time(r) != want {
			t.Fatalf("instant %d = %v, want %v", r, g.Time(r), want)
		}
	}
	if last := g.UTCHour(287); int(last) != 23 || last >= 24 {
		t.Errorf("last instant at hour %v", last)
	}
}
