package traffic

import (
	"math"
	"testing"

	"itmap/internal/dnssim"
	"itmap/internal/geo"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/users"
)

// referenceQueryRate is the one-shot rate law as it stood before the rate was
// split into a prepared and a timed half, over the demand law as it stood
// before that was split per prefix and per service (matrix_test.go): every
// factor recomputed per call, in the original evaluation order. The splits
// must reproduce it bit for bit.
func referenceQueryRate(m *Model, domain string, scope topology.PrefixID, t simtime.Time) float64 {
	svc, ok := m.Cat.ByDomain(domain)
	if !ok {
		return 0
	}
	city, ok := m.Top.PrefixCity[scope]
	if !ok {
		return 0
	}
	if !m.UsesPublicResolver(scope) {
		return 0
	}
	share := m.PR.AdoptionShare(city.Country)
	return referenceQueriesPerDay(m, scope, svc) / 24 * share * referenceDiurnal(m, scope, t)
}

func referenceDiurnal(m *Model, p topology.PrefixID, t simtime.Time) float64 {
	if m.IsBotPrefix(p) {
		return 1
	}
	u := m.Users.UsersIn(p)
	if u == 0 {
		return 0
	}
	a := u * users.DiurnalFactor(t.UTCHour())
	if c, err := geo.CountryByCode(m.Top.PrefixCity[p].Country); err == nil {
		a = u * users.DiurnalFactor(geo.LocalHourAt(c.UTCOffsetHours, t.UTCHour()))
	}
	return a / u / 0.65
}

// TestPreparedQueryRateMatchesReference sweeps every prefix of a tiny world
// against every ECS domain and against a day of 15-minute slots, resolving
// each prefix's clients once and finishing them per domain, as a sweep does.
// The domain reaches the rate only through its time-invariant half and the
// slot only through the prefix's activity curve, so the two axes are swept
// one at a time (every domain at a rotating slot, every slot on a rotating
// domain) instead of as an 80M-evaluation cross product. An unknown domain
// never reaches the rate source (dnssim answers NXDOMAIN first): its rate
// is 0.
func TestPreparedQueryRateMatchesReference(t *testing.T) {
	m := setup(t, 9)
	domains := append(m.Cat.ECSDomains(), "nxdomain.example")
	slotTime := func(slot int) simtime.Time {
		return simtime.Time(float64(slot%96)) * 15 * simtime.Minute
	}
	var bots, idle, optedOut, live int
	check := func(dom string, c dnssim.Clients, at simtime.Time) {
		t.Helper()
		p, got := c.Scope, 0.0
		if svc, ok := m.Cat.ByDomain(dom); ok {
			got = m.QueryRate(svc, c).At(at)
		}
		want := referenceQueryRate(m, dom, p, at)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s %v at %v: prepared rate %v (%016x), reference %v (%016x)",
				dom, p, at, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got > 0 {
			live++
		}
	}
	for i, p := range m.Top.AllPrefixes() {
		switch {
		case m.IsBotPrefix(p):
			bots++
		case m.Users.UsersIn(p) == 0:
			idle++
		case !m.UsesPublicResolver(p):
			optedOut++
		}
		c := m.Clients(p)
		for j, dom := range domains {
			check(dom, c, slotTime(i+j))
		}
		for slot := 0; slot < 96; slot++ {
			check(domains[i%len(domains)], c, slotTime(slot))
		}
	}
	if bots == 0 || idle == 0 || optedOut == 0 || live == 0 {
		t.Errorf("sweep missed a class: %d bot, %d zero-user, %d opted-out prefixes, %d non-zero rates",
			bots, idle, optedOut, live)
	}
}
