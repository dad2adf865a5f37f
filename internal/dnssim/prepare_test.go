package dnssim

import (
	"fmt"
	"math"
	"testing"

	"itmap/internal/faults"
	"itmap/internal/obs"
	"itmap/internal/randx"
	"itmap/internal/services"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/users"
)

// diurnalRate is a RateSource whose rates move with time: hash-drawn day
// means (a third of them zero, a tenth flat) on a real population curve.
type diurnalRate struct {
	um *users.Model
}

func (d diurnalRate) Clients(scope topology.PrefixID) Clients {
	return Clients{Scope: scope, Activity: d.um.Activity(scope)}
}

func (d diurnalRate) QueryRate(svc *services.Service, c Clients) QueryRate {
	h, scope := hashString(svc.Domain), c.Scope
	q := QueryRate{
		Flat:     randx.HashBool(0.1, 1, h, uint64(scope)),
		Activity: c.Activity,
	}
	if !randx.HashBool(1.0/3, 2, h, uint64(scope)) {
		q.PerHour = 40 * randx.HashFloat(3, h, uint64(scope))
	}
	return q
}

// referenceDiurnal is QueryRate.diurnal as it stood before sampling grids:
// the mod and the cos behind Activity.At paid for every probe.
func referenceDiurnal(q QueryRate, t simtime.Time) float64 {
	if q.Flat {
		return 1
	}
	u := q.Activity.Users
	if u == 0 {
		return 0
	}
	return q.Activity.At(t) / u / users.DiurnalMean
}

// referenceProbe is the one-shot probe as it stood before Prepare/At and
// before sampling grids: every check, key, hash and counter lookup redone
// per probe, in the original order, the draw hashed from its six keys, the
// exp always taken, two counter increments per answer. Prepared probes, on
// a grid or off it, must agree with it on every answer and leave every
// counter at the same value.
func referenceProbe(pr *PublicResolver, popID int, domain string, ecs topology.PrefixID, t simtime.Time, opt ProbeOpts) (bool, error) {
	if pr.rates == nil {
		return false, fmt.Errorf("dnssim: no rate source wired")
	}
	if popID < 0 || popID >= len(pr.PoPs) {
		return false, fmt.Errorf("dnssim: unknown PoP %d", popID)
	}
	key := randx.Hash64(hashString(domain), uint64(ecs))
	if err := pr.faults.ProbeFault(popID, opt.Source, key, opt.Attempt, t); err != nil {
		probeErrors.With(faultKind(err)).Inc()
		return false, err
	}
	svc, ok := pr.cat.ByDomain(domain)
	if !ok {
		return false, fmt.Errorf("dnssim: NXDOMAIN %s", domain)
	}
	if !svc.ECS || svc.Kind == services.Anycast {
		return false, fmt.Errorf("dnssim: %s does not support per-prefix ECS scoping", domain)
	}
	if home := pr.HomePoP(ecs); home == nil || home.ID != popID {
		return false, nil
	}
	ttl := simtime.Seconds(float64(svc.TTLSeconds))
	c := pr.rates.Clients(ecs)
	q := pr.rates.QueryRate(svc, c)
	rate := q.PerHour * referenceDiurnal(q, t)
	p := 1 - math.Exp(-rate*float64(ttl))
	window := uint64(math.Floor(float64(t / ttl)))
	hit := randx.HashBool(p, pr.seed, 0xcac4e, uint64(popID), hashString(domain), uint64(ecs), window)
	probesAnswered.Inc()
	if hit {
		probeHits.Inc()
	}
	return hit, nil
}

type probeOutcome struct {
	hit bool
	err string
}

func outcome(hit bool, err error) probeOutcome {
	if err != nil {
		return probeOutcome{hit, err.Error()}
	}
	return probeOutcome{hit: hit}
}

// TestPreparedProbeMatchesReference drives both paths over a seeded grid of
// (PoP incl. wrong and out-of-range, domain incl. unknown and non-ECS,
// prefix incl. unrouted, t, attempt) under each fault profile, each on a
// fresh metrics registry, and compares answers and the stable exposition.
func TestPreparedProbeMatchesReference(t *testing.T) {
	top, cat, pr := setup(t, 11)
	um := users.Build(top, users.DefaultConfig(), randx.New(11))
	pr.SetRateSource(diurnalRate{um})

	domains := []string{"nxdomain.example"}
	ecs, nonECS := 0, 0
	for _, s := range cat.Services {
		switch {
		case s.ECS && s.Kind != services.Anycast && ecs < 3:
			domains = append(domains, s.Domain)
			ecs++
		case !(s.ECS && s.Kind != services.Anycast) && nonECS < 2:
			domains = append(domains, s.Domain)
			nonECS++
		}
	}
	if ecs == 0 || nonECS == 0 {
		t.Fatalf("grid needs ECS and non-ECS domains, have %d and %d", ecs, nonECS)
	}
	prefixes := []topology.PrefixID{topology.PrefixID(0xfffffff0)} // unrouted: no home PoP
	for _, p := range um.UserPrefixes() {
		if randx.HashBool(0.02, 4, uint64(p)) {
			prefixes = append(prefixes, p)
		}
	}
	var times []simtime.Time
	for i := 0; i < 14; i++ {
		times = append(times, simtime.Time(48*randx.HashFloat(5, uint64(i))))
	}

	plans := map[string]*faults.Plan{
		"nil":     nil,
		"none":    faults.NewPlan(faults.None(), 7),
		"lossy":   faults.NewPlan(faults.Lossy(), 7),
		"hostile": faults.NewPlan(faults.Hostile(), 7),
	}
	type probeFn func(pop int, domain string, p topology.PrefixID) func(simtime.Time, ProbeOpts) (bool, error)
	oneShot := func(pop int, domain string, p topology.PrefixID) func(simtime.Time, ProbeOpts) (bool, error) {
		return func(at simtime.Time, opt ProbeOpts) (bool, error) {
			return referenceProbe(pr, pop, domain, p, at, opt)
		}
	}
	prepared := func(pop int, domain string, p topology.PrefixID) func(simtime.Time, ProbeOpts) (bool, error) {
		probe := pr.Prepare(pop, domain, p)
		return probe.At
	}
	sweep := func(fn probeFn) (out []probeOutcome, exposition string) {
		set := obs.NewSet()
		defer obs.Swap(obs.Swap(set))
		for _, p := range prefixes {
			pops := []int{-1, len(pr.PoPs)}
			if home := pr.HomePoP(p); home != nil {
				pops = append(pops, home.ID, (home.ID+1)%len(pr.PoPs))
			} else {
				pops = append(pops, 0)
			}
			for _, pop := range pops {
				for _, dom := range domains {
					at := fn(pop, dom, p)
					for _, tm := range times {
						for attempt := 0; attempt < 3; attempt++ {
							out = append(out, outcome(at(tm, ProbeOpts{Source: uint64(p) % 3, Attempt: attempt})))
						}
					}
				}
			}
		}
		return out, set.Reg.StableExposition()
	}

	for name, plan := range plans {
		pr.SetFaultPlan(plan)
		want, wantExpo := sweep(oneShot)
		got, gotExpo := sweep(prepared)
		if len(got) != len(want) {
			t.Fatalf("%s: %d prepared outcomes, %d reference", name, len(got), len(want))
		}
		hits, faulted := 0, 0
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: outcome %d: prepared %+v, reference %+v", name, i, got[i], want[i])
			}
			if want[i].hit {
				hits++
			}
			if want[i].err == faults.ErrTimeout.Error() {
				faulted++
			}
		}
		if gotExpo != wantExpo {
			t.Errorf("%s: stable exposition differs\nprepared:\n%s\nreference:\n%s", name, gotExpo, wantExpo)
		}
		if hits == 0 || hits == len(want) {
			t.Errorf("%s: %d hits of %d probes: grid is vacuous", name, hits, len(want))
		}
		if plan.Enabled() != (faulted > 0) {
			t.Errorf("%s: plan enabled=%v but %d timeouts", name, plan.Enabled(), faulted)
		}
	}
	pr.SetFaultPlan(nil)

	// No rate source outranks every other complaint, on both paths.
	pr.SetRateSource(nil)
	for _, pop := range []int{-1, 0} {
		probe := pr.Prepare(pop, "nxdomain.example", prefixes[1])
		got := outcome(probe.At(1, ProbeOpts{}))
		want := outcome(referenceProbe(pr, pop, "nxdomain.example", prefixes[1], 1, ProbeOpts{}))
		if got != want || got.err == "" {
			t.Errorf("no rate source, PoP %d: prepared %+v, reference %+v", pop, got, want)
		}
		if _, err := probe.lookup(1); err == nil {
			t.Error("fault-free lookup answered without a rate source")
		}
	}
}
