package traffic

import (
	"math"
	"testing"

	"itmap/internal/bgp"
	"itmap/internal/dnssim"
	"itmap/internal/randx"
	"itmap/internal/services"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/users"
)

func setup(t testing.TB, seed int64) *Model {
	t.Helper()
	return setupScale(t, topology.TinyGenConfig(seed), seed)
}

// setupScale wires a model the way world.Build does (which this package
// cannot import), over a topology of the given scale.
func setupScale(t testing.TB, cfg topology.GenConfig, seed int64) *Model {
	t.Helper()
	top := topology.Generate(cfg)
	rng := randx.New(seed)
	um := users.Build(top, users.DefaultConfig(), rng.Fork())
	cat := services.Build(top, services.DefaultConfig(), rng.Fork())
	top.Freeze()
	ap := bgp.ComputeAll(top)
	pr := dnssim.NewPublicResolver(top, cat, top.ASesOfType(topology.Hypergiant)[0], seed)
	return New(top, um, cat, ap, pr, seed)
}

// pairQueries is QueriesPerDay for one ⟨prefix, service⟩.
func pairQueries(m *Model, p topology.PrefixID, svc *services.Service) float64 {
	return m.QueriesPerDay([]topology.PrefixID{p}, []*services.Service{svc})[0]
}

func TestDemandPure(t *testing.T) {
	m := setup(t, 1)
	p := m.Users.UserPrefixes()[0]
	svc := m.Cat.Services[0]
	a := pairQueries(m, p, svc)
	b := pairQueries(m, p, svc)
	if a != b {
		t.Fatal("QueriesPerDay not pure")
	}
	if a < 0 {
		t.Fatal("negative demand")
	}
}

func TestDemandScalesWithUsersAndRank(t *testing.T) {
	m := setup(t, 2)
	// Aggregate demand across many prefixes to wash out jitter.
	q := m.QueriesPerDay(m.Users.UserPrefixes(), []*services.Service{m.Cat.Services[0], m.Cat.Services[19]})
	top1, top20 := q[0], q[1]
	if top1 <= top20 {
		t.Errorf("rank-1 queries (%.0f) should exceed rank-20 (%.0f)", top1, top20)
	}
}

func TestQueryRateDiurnal(t *testing.T) {
	m := setup(t, 3)
	svc := m.Cat.Services[0]
	if !svc.ECS {
		for _, s := range m.Cat.Services {
			if s.ECS && s.Kind != services.Anycast {
				svc = s
				break
			}
		}
	}
	// Pick a busy prefix.
	var p topology.PrefixID
	for _, cand := range m.Users.UserPrefixes() {
		if pairQueries(m, cand, svc) > 0 {
			p = cand
			break
		}
	}
	// Rate integrates to roughly daily count × adoption share.
	city := m.Top.PrefixCity[p]
	want := pairQueries(m, p, svc) * m.PR.AdoptionShare(city.Country)
	c := m.Clients(p)
	rate := m.QueryRate(svc, c)
	got := 0.0
	const step = 0.25
	for tm := simtime.Time(0); tm < 24; tm += step {
		got += rate.At(tm) * step
	}
	if math.Abs(got-want) > 0.02*want {
		t.Errorf("integrated rate %.1f vs daily %.1f", got, want)
	}
	// And it varies over the day.
	lo, hi := math.Inf(1), 0.0
	for tm := simtime.Time(0); tm < 24; tm++ {
		r := rate.At(tm)
		lo = math.Min(lo, r)
		hi = math.Max(hi, r)
	}
	if hi <= lo*1.5 {
		t.Errorf("rate not diurnal: lo=%f hi=%f", lo, hi)
	}
}

func TestChromiumRootQueries(t *testing.T) {
	m := setup(t, 4)
	entries := m.ChromiumRootQueries(0)
	if len(entries) == 0 {
		t.Fatal("no root queries")
	}
	var viaPublic, viaISP float64
	for _, e := range entries {
		if e.Queries <= 0 {
			t.Fatalf("non-positive query count: %+v", e)
		}
		if e.ResolverASN == m.PR.Owner {
			viaPublic += e.Queries
		} else {
			viaISP += e.Queries
			if m.Users.ASUsers(e.ResolverASN) == 0 &&
				m.Top.ASes[e.ResolverASN].Type != topology.Transit {
				t.Errorf("AS %d in root logs is neither user-hosting nor a provider resolver", e.ResolverASN)
			}
		}
	}
	if viaPublic <= 0 {
		t.Error("no public-resolver egress in root logs")
	}
	share := viaPublic / (viaPublic + viaISP)
	if share < 0.15 || share > 0.55 {
		t.Errorf("public resolver share of root queries %.2f, want ~0.3", share)
	}
	// Day-to-day jitter is small but non-zero.
	e2 := m.ChromiumRootQueries(1)
	if len(e2) != len(entries) {
		t.Fatal("entry counts differ across days")
	}
	if e2[0].Queries == entries[0].Queries {
		t.Error("no day jitter")
	}
}

func TestAssignConsistency(t *testing.T) {
	m := setup(t, 5)
	for _, svc := range m.Cat.Services[:10] {
		for _, e := range m.Top.ASesOfType(topology.Eyeball) {
			shares := m.Assign(svc, e)
			if len(shares) == 0 {
				t.Fatalf("no assignment for svc %d client %d", svc.ID, e)
			}
			total := 0.0
			for _, ss := range shares {
				if ss.Site.Owner != svc.Owner {
					t.Fatalf("assigned to foreign site")
				}
				total += ss.Share
			}
			if math.Abs(total-1) > 1e-9 {
				t.Fatalf("shares sum to %f", total)
			}
		}
	}
}

func TestAssignOffNetPreferred(t *testing.T) {
	m := setup(t, 6)
	// Find an ECS DNS service and a client hosting its owner's off-net.
	for _, svc := range m.Cat.Services {
		if svc.Kind != services.DNSUnicast || !svc.ECS {
			continue
		}
		d := m.Cat.Deployments[svc.Owner]
		for host := range d.OffNetByHost {
			shares := m.Assign(svc, host)
			if len(shares) != 1 || !shares[0].Site.OffNet() || shares[0].Site.HostAS != host {
				t.Fatalf("client %d not served by its off-net: %+v", host, shares)
			}
			return
		}
	}
	t.Skip("no ECS service with off-nets")
}

func TestAnycastAssignment(t *testing.T) {
	m := setup(t, 7)
	for _, svc := range m.Cat.Services {
		if svc.Kind != services.Anycast {
			continue
		}
		for _, e := range m.Top.ASesOfType(topology.Eyeball)[:10] {
			shares := m.Assign(svc, e)
			if len(shares) != 1 {
				t.Fatalf("anycast split: %+v", shares)
			}
			if shares[0].Site.OffNet() {
				t.Fatal("anycast landed off-net")
			}
		}
		return
	}
	t.Skip("no anycast service")
}

func TestMatrixLinkLoadsOnRealLinks(t *testing.T) {
	m := setup(t, 8)
	mx := m.BuildMatrix()
	for lk, load := range mx.LinkLoad {
		if load <= 0 {
			t.Fatalf("non-positive link load on %v", lk)
		}
		if !m.Top.HasLink(lk.Lo, lk.Hi) {
			t.Fatalf("load on nonexistent link %v", lk)
		}
	}
	// Hypergiant PNIs should carry substantial load (the flattening).
	var pniLoad, totalLoad float64
	for lk, load := range mx.LinkLoad {
		totalLoad += load
		ta, tb := m.Top.ASes[lk.Lo].Type, m.Top.ASes[lk.Hi].Type
		if ta == topology.Hypergiant || tb == topology.Hypergiant {
			pniLoad += load
		}
	}
	if pniLoad < 0.2*totalLoad {
		t.Errorf("hypergiant links carry %.0f%% of load; expected dominant", 100*pniLoad/totalLoad)
	}
}

func TestUsageDropoutCreatesZeroDemand(t *testing.T) {
	m := setup(t, 9)
	// Small enterprise prefixes should skip at least one service.
	skipped := false
	for _, asn := range m.Top.ASesOfType(topology.Enterprise) {
		p := m.Top.ASes[asn].Prefixes[0]
		for _, svc := range m.Cat.Services {
			if m.Users.UsersIn(p) > 0 && pairQueries(m, p, svc) == 0 {
				skipped = true
				break
			}
		}
		if skipped {
			break
		}
	}
	if !skipped {
		t.Error("no (small prefix, service) pair with zero usage; FP mechanism dead")
	}
}
