package dnssim

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"itmap/internal/faults"
	"itmap/internal/geo"
	"itmap/internal/obs"
	"itmap/internal/randx"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/users"
)

// zonelessRate is diurnalRate with every seventh scope's population moved to
// no country at all, so its curve runs on UTC.
type zonelessRate struct{ diurnalRate }

func (z zonelessRate) Clients(scope topology.PrefixID) Clients {
	c := z.diurnalRate.Clients(scope)
	if scope%7 == 0 {
		c.Activity = users.Activity{Users: c.Activity.Users}
	}
	return c
}

// testGrids are the shapes the campaigns sample on: the hit-rate day, an
// hourly profile on a cadence that does not divide the hour and starts
// mid-hour, and discovery's rounds on a later day.
func testGrids() []*users.Grid {
	rounds := make([]simtime.Time, 7)
	for r := range rounds {
		rounds[r] = 24 + simtime.Time(24*float64(r)/float64(len(rounds)))
	}
	return []*users.Grid{
		users.Every(0, 15*simtime.Minute, 96),
		users.Every(0.5, 7*simtime.Minute, 206),
		users.NewGrid(rounds),
	}
}

// TestGridProbeMatchesReference: a probe on a grid answers exactly what the
// pre-grid one-shot probe answers at that instant, and the flushed counters
// end where per-probe increments did — for every ⟨prefix, slot⟩ of a seeded
// tiny world's hit-rate day without faults and of a discovery sweep under
// the hostile preset, and for a sample of prefixes on the other pairings.
func TestGridProbeMatchesReference(t *testing.T) {
	top, cat, pr := setup(t, 11)
	um := users.Build(top, users.DefaultConfig(), randx.New(11))
	pr.SetRateSource(zonelessRate{diurnalRate{um}})
	domain := ecsDomain(t, cat).Domain
	all := append([]topology.PrefixID{topology.PrefixID(0xfffffff0)}, top.AllPrefixes()...)
	grids := testGrids()
	none, hostile := faults.NewPlan(faults.None(), 7), faults.NewPlan(faults.Hostile(), 7)

	for _, c := range []struct {
		name   string
		plan   *faults.Plan
		grid   *users.Grid
		stride int
	}{
		{"none/day", none, grids[0], 1},
		{"hostile/rounds", hostile, grids[2], 1},
		{"hostile/day", hostile, grids[0], 8},
		{"none/hourly", none, grids[1], 16},
		{"hostile/hourly", hostile, grids[1], 16},
	} {
		if testing.Short() {
			c.stride *= 8
		}
		pr.SetFaultPlan(c.plan)
		sweep := func(onGrid bool) (out []probeOutcome, exposition string) {
			set := obs.NewSet()
			defer obs.Swap(obs.Swap(set))
			out = make([]probeOutcome, 0, len(all)/c.stride*c.grid.Len())
			for i := 0; i < len(all); i += c.stride {
				p := all[i]
				pop := 0
				if home := pr.HomePoP(p); home != nil {
					pop = home.ID
				}
				opt := ProbeOpts{Source: uint64(p) % 3, Attempt: int(p) % 2}
				if !onGrid {
					for r := 0; r < c.grid.Len(); r++ {
						out = append(out, outcome(referenceProbe(pr, pop, domain, p, c.grid.Time(r), opt)))
					}
					continue
				}
				probe := pr.Prepare(pop, domain, p)
				probe.Over(c.grid)
				var n Lookups
				for r := 0; r < c.grid.Len(); r++ {
					out = append(out, outcome(probe.AtSlot(r, opt, &n)))
				}
				n.Publish()
			}
			return out, set.Reg.StableExposition()
		}
		want, wantExpo := sweep(false)
		got, gotExpo := sweep(true)
		hits, faulted := 0, 0
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: prefix %d slot %d: on grid %+v, reference %+v", c.name,
					all[i/c.grid.Len()*c.stride], i%c.grid.Len(), got[i], want[i])
			}
			if want[i].hit {
				hits++
			}
			if want[i].err != "" {
				faulted++
			}
		}
		if gotExpo != wantExpo {
			t.Errorf("%s: stable exposition differs\non grid:\n%s\nreference:\n%s", c.name, gotExpo, wantExpo)
		}
		if hits == 0 || hits == len(want) {
			t.Errorf("%s: %d hits of %d probes: sweep is vacuous", c.name, hits, len(want))
		}
		if c.plan.Enabled() != (faulted > 0) {
			t.Errorf("%s: plan enabled=%v but %d faults", c.name, c.plan.Enabled(), faulted)
		}
	}
	pr.SetFaultPlan(nil)
}

// TestGridCellsMatchReference: every multiplier a probe can read off a grid
// is, bit for bit, what the old per-probe mod and cos produced at that
// instant — flat, unpopulated and countryless scopes included — and
// QueryRate.At, which still computes it, agrees.
func TestGridCellsMatchReference(t *testing.T) {
	top, cat, pr := setup(t, 11)
	um := users.Build(top, users.DefaultConfig(), randx.New(11))
	pr.SetRateSource(zonelessRate{diurnalRate{um}})
	domain := ecsDomain(t, cat).Domain

	var flat, empty, zoneless, curved int
	for gi, grid := range testGrids() {
		for _, p := range top.AllPrefixes() {
			probe := pr.Prepare(pr.HomePoP(p).ID, domain, p)
			probe.Over(grid)
			q := probe.rate
			switch {
			case q.Flat:
				flat++
			case q.Activity.Users == 0:
				empty++
			case p%7 == 0:
				zoneless++
			default:
				curved++
			}
			for r := 0; r < grid.Len(); r++ {
				got := probe.slotDiurnal(r)
				at := grid.Time(r)
				want := referenceDiurnal(q, at)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("grid %d prefix %d slot %d: multiplier %x off the grid, %x by the old path",
						gi, p, r, math.Float64bits(got), math.Float64bits(want))
				}
				if g, w := q.At(at), q.PerHour*want; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("grid %d prefix %d slot %d: QueryRate.At %x, old path %x", gi, p, r,
						math.Float64bits(g), math.Float64bits(w))
				}
			}
		}
	}
	if flat == 0 || empty == 0 || zoneless == 0 || curved == 0 {
		t.Errorf("cells checked: %d flat, %d without users, %d without a country, %d ordinary: a kind is missing",
			flat, empty, zoneless, curved)
	}
}

// TestHomePoPByCityMatchesByPrefix: the per-city memo answers, for every
// prefix, what a scan of the PoPs from that prefix answers — from several
// goroutines at once on a cold resolver (run with -race).
func TestHomePoPByCityMatchesByPrefix(t *testing.T) {
	top, _, pr := setup(t, 5)
	prefixes := append(top.AllPrefixes(), topology.PrefixID(0xfffffff0))
	scan := func(p topology.PrefixID) *PoP { return scanHomePoP(top, pr, p) }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range prefixes {
				p := prefixes[(i+g*len(prefixes)/4)%len(prefixes)]
				if got, want := pr.HomePoP(p), scan(p); got != want {
					t.Errorf("HomePoP(%d) = %v, scan says %v", p, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	cities := map[string]bool{}
	for _, p := range top.AllPrefixes() {
		cities[top.PrefixCity[p].Name] = true
	}
	if n := len(*pr.home.m.Load()); n > len(cities) {
		t.Errorf("memo holds %d entries for %d cities", n, len(cities))
	}
}

// scanHomePoP is HomePoP without the memo: a scan of the PoPs from p's city.
func scanHomePoP(top *topology.Topology, pr *PublicResolver, p topology.PrefixID) *PoP {
	city, ok := top.PrefixCity[p]
	if !ok {
		return nil
	}
	var best *PoP
	bestDist := math.Inf(1)
	for _, pop := range pr.PoPs {
		if d := geo.DistanceKm(city.Coord, pop.City.Coord); d < bestDist {
			best, bestDist = pop, d
		}
	}
	return best
}

// TestPrepareHomeMatchesPrepare: a sweep that resolves a prefix's target once
// and hands it to PrepareHome gets, for every prefix and every kind of domain,
// the probe Prepare builds by resolving the target itself — with the home
// taken from the scan oracle, so a wrong memo cannot agree with itself.
func TestPrepareHomeMatchesPrepare(t *testing.T) {
	top, cat, pr := setup(t, 5)
	pr.SetRateSource(diurnalRate{users.Build(top, users.DefaultConfig(), randx.New(11))})
	pr.SetFaultPlan(faults.NewPlan(faults.Lossy(), 11))
	domains := []string{"nxdomain.example"}
	for _, s := range cat.Services {
		domains = append(domains, s.Domain) // ECS, resolver-scoped and anycast alike
	}
	homes := 0
	for i, p := range top.AllPrefixes() {
		home := scanHomePoP(top, pr, p)
		if home == nil {
			t.Fatalf("allocated prefix %v has no home PoP", p)
		}
		for j, dom := range domains {
			if (i+j)%5 != 0 { // every prefix, every domain, a fifth of the cross product
				continue
			}
			target := Target{Prefix: p, Home: home, clients: pr.rates.Clients(p)}
			got, want := pr.PrepareHome(&target, dom), pr.Prepare(home.ID, dom, p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v: PrepareHome %+v, Prepare %+v", dom, p, got, want)
			}
			if got.home {
				homes++
			}
		}
	}
	if homes == 0 {
		t.Error("no prepared probe was of a prefix-scoped record at its home PoP")
	}
}

// TestAdoptionShareMemoMatchesDirect: the per-country memo answers what the
// adoption law answers, cold and warm, from several goroutines at once (run
// with -race), and holds one entry per country asked.
func TestAdoptionShareMemoMatchesDirect(t *testing.T) {
	_, _, pr := setup(t, 6)
	codes := []string{"ZZ", ""}
	for _, c := range geo.Countries() {
		codes = append(codes, c.Code)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ {
				for i := range codes {
					code := codes[(i+g*len(codes)/4)%len(codes)]
					got, want := pr.AdoptionShare(code), pr.adoptionShare(code)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("AdoptionShare(%q) = %v, the law says %v", code, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(*pr.adoption.m.Load()); n != len(codes) {
		t.Errorf("memo holds %d entries for %d country codes", n, len(codes))
	}
}
