package traffic

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"itmap/internal/randx"
	"itmap/internal/services"
	"itmap/internal/topology"
)

// canonFlows returns a canonically sorted copy of a flow list so builds
// can be compared independent of shard concatenation order.
func canonFlows(fs []Flow) []Flow {
	out := append([]Flow(nil), fs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.ClientAS != b.ClientAS {
			return a.ClientAS < b.ClientAS
		}
		if a.Svc != b.Svc {
			return a.Svc < b.Svc
		}
		if a.Site != b.Site {
			return a.Site.Prefix < b.Site.Prefix
		}
		return a.Bytes < b.Bytes
	})
	return out
}

func sameASMap(t *testing.T, name string, a, b map[topology.ASN]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d entries", name, len(a), len(b))
	}
	for k, va := range a {
		if vb, ok := b[k]; !ok || va != vb {
			t.Fatalf("%s[%v]: %v vs %v", name, k, va, vb)
		}
	}
}

// withCPUs runs fn with GOMAXPROCS set to cpus and restores it on return.
// Tests that call it must not call t.Parallel: GOMAXPROCS is process-wide.
func withCPUs(cpus int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cpus))
	fn()
}

// buildAt is BuildMatrix under GOMAXPROCS=cpus.
func buildAt(m *Model, cpus int) (mx *Matrix) {
	withCPUs(cpus, func() { mx = m.BuildMatrix() })
	return mx
}

// TestBuildMatrixDeterministicAcrossWorkers guards the shard-and-merge
// pipeline: the matrix must be bit-identical whether it is built on one
// CPU or many (shard boundaries and merge order are fixed, so no float is
// ever summed in a schedule-dependent order).
func TestBuildMatrixDeterministicAcrossWorkers(t *testing.T) {
	m := setup(t, 11)
	serial := buildAt(m, 1)
	mx := buildAt(m, 8)
	if mx.TotalBytes != serial.TotalBytes {
		t.Fatalf("TotalBytes differ: %v vs %v", mx.TotalBytes, serial.TotalBytes)
	}
	if mx.TailBytes != serial.TailBytes {
		t.Fatalf("TailBytes differ: %v vs %v", mx.TailBytes, serial.TailBytes)
	}
	for i, v := range serial.PerService {
		if mx.PerService[i] != v {
			t.Fatalf("PerService[%d]: %v vs %v", i, mx.PerService[i], v)
		}
	}
	sameASMap(t, "ASLoad", serial.ASLoad, mx.ASLoad)
	sameASMap(t, "PerOwner", serial.PerOwner, mx.PerOwner)
	sameASMap(t, "ClientASBytes", serial.ClientASBytes, mx.ClientASBytes)
	sameASMap(t, "RefCDNByAS", serial.RefCDNByAS, mx.RefCDNByAS)
	if len(serial.LinkLoad) != len(mx.LinkLoad) {
		t.Fatalf("LinkLoad sizes: %d vs %d", len(serial.LinkLoad), len(mx.LinkLoad))
	}
	for k, v := range serial.LinkLoad {
		if mx.LinkLoad[k] != v {
			t.Fatalf("LinkLoad[%v]: %v vs %v", k, mx.LinkLoad[k], v)
		}
	}
	fa, fb := canonFlows(serial.Flows), canonFlows(mx.Flows)
	if len(fa) != len(fb) {
		t.Fatalf("flow counts: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("flow %d differs: %+v vs %+v", i, fa[i], fb[i])
		}
	}
}

// TestMatrixDenseViewsMatchMaps checks the dense accumulators the build
// exposes agree with the exported map views.
func TestMatrixDenseViewsMatchMaps(t *testing.T) {
	m := setup(t, 12)
	mx := m.BuildMatrix()
	asns := m.Top.ASNs()
	for i, asn := range asns {
		if mx.ASLoadDense[i] != mx.ASLoad[asn] {
			t.Fatalf("ASLoadDense[%d]=%v, ASLoad[%v]=%v", i, mx.ASLoadDense[i], asn, mx.ASLoad[asn])
		}
	}
	if mx.Links.NumLinks() != m.Top.NumLinks() {
		t.Fatalf("link index has %d links, topology %d", mx.Links.NumLinks(), m.Top.NumLinks())
	}
	for id, v := range mx.LinkLoadDense {
		if v != mx.LinkLoad[mx.Links.Key(int32(id))] {
			t.Fatalf("LinkLoadDense[%d]=%v, map=%v", id, v, mx.LinkLoad[mx.Links.Key(int32(id))])
		}
	}
}

// TestCumulativeTopShareOverflowK: k beyond the owner count must clamp to
// the full share, not panic or extrapolate.
func TestCumulativeTopShareOverflowK(t *testing.T) {
	m := setup(t, 13)
	mx := m.BuildMatrix()
	all := mx.CumulativeTopShare(len(mx.PerOwner))
	over := mx.CumulativeTopShare(len(mx.PerOwner) + 1000)
	if over != all {
		t.Fatalf("overflow k changed the share: %v vs %v", over, all)
	}
	if over < 0.999 || over > 1.001 {
		t.Fatalf("total share %v, want ~1 (tail + catalog cover everything)", over)
	}
}

// The demand law and the per-AS accumulation as they stood before the law
// was split into a per-prefix and a per-service half: every factor recomputed
// per ⟨prefix, service⟩, in the original evaluation order. Kept verbatim as
// the oracle the split must reproduce bit for bit.

func referenceUsageProb(m *Model, p topology.PrefixID) float64 {
	return 1 - math.Exp(-m.Users.UsersIn(p)/300)
}

func referenceAffinity(m *Model, p topology.PrefixID, svc *services.Service) float64 {
	if randx.HashFloat(m.seed, 0x05e, uint64(p), uint64(svc.ID)) > referenceUsageProb(m, p) {
		return 0
	}
	return randx.HashLognormal(0, 0.5, m.seed, 0xaff, uint64(p), uint64(svc.ID))
}

func referenceQueriesPerDay(m *Model, p topology.PrefixID, svc *services.Service) float64 {
	u := m.Users.UsersIn(p)
	if u == 0 {
		return 0
	}
	return u * QueriesPerUserPerDay * m.Cat.Popularity.Weight(svc.Rank) * referenceAffinity(m, p, svc)
}

func referenceDailyBytes(m *Model, p topology.PrefixID, svc *services.Service) float64 {
	return referenceQueriesPerDay(m, p, svc) * svc.BytesPerQuery
}

func (m *Model) referenceAccumulate(acc *shardAcc, li *topology.LinkIndex,
	ci int, clientAS topology.ASN, ownerIdx []int32, tailHosts []topology.ASN) {
	a := m.Top.ASes[clientAS]
	if m.Users.ASUsers(clientAS) == 0 {
		return
	}
	for _, svc := range m.Cat.Services {
		// Per-AS volume: sum of the pure per-prefix function.
		bytes := 0.0
		for _, p := range a.Prefixes {
			b := referenceDailyBytes(m, p, svc)
			bytes += b
			if svc.Owner == m.Cat.ReferenceCDN && b > 0 {
				acc.refCDNByPrefix[p] += b
			}
		}
		if bytes == 0 {
			continue
		}
		if svc.Owner == m.Cat.ReferenceCDN {
			acc.refCDNByAS[ci] += bytes
		}
		acc.perService[svc.ID] += bytes
		acc.perOwner[ownerIdx[svc.ID]] += bytes
		acc.clientASBytes[ci] += bytes
		acc.totalBytes += bytes
		for _, ss := range m.Assign(svc, clientAS) {
			fb := bytes * ss.Share
			if fb == 0 {
				continue
			}
			hops := m.routeFlow(acc, li, ci, clientAS, ss.Site.HostAS, fb)
			acc.flows = append(acc.flows, Flow{
				ClientAS: clientAS, Svc: svc.ID, Site: ss.Site,
				Bytes: fb, Hops: hops,
			})
		}
	}
	// Long-tail demand to self-hosted destinations.
	catBytes := acc.clientASBytes[ci]
	if catBytes == 0 || len(tailHosts) == 0 || m.TailShare <= 0 {
		return
	}
	tailBytes := catBytes * m.TailShare / (1 - m.TailShare)
	weights := make([]float64, m.TailFanout)
	var wsum float64
	for i := range weights {
		weights[i] = randx.HashLognormal(0, 0.8, m.seed, 0x7a11, uint64(clientAS), uint64(i))
		wsum += weights[i]
	}
	for i := 0; i < m.TailFanout; i++ {
		host := tailHosts[randx.Hash64(m.seed, 0x7a12, uint64(clientAS), uint64(i))%uint64(len(tailHosts))]
		b := tailBytes * weights[i] / wsum
		m.routeFlow(acc, li, ci, clientAS, host, b)
		hostIdx, _ := m.Top.Index(host)
		acc.perOwner[hostIdx] += b
		acc.clientASBytes[ci] += b
		acc.tailBytes += b
		acc.totalBytes += b
	}
}

func sameBits(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %v (%016x), reference %v (%016x)",
			name, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func sameBitsSlice(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v (%016x), reference %v (%016x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestBuildMatrixMatchesReference runs the pre-split accumulator through the
// build's own shard layout and left-fold merge and requires the hoisted build
// to reproduce every cell bit for bit and every flow exactly, in order, at
// every CPU count. (Mutations this catches: users·(120·weight) in place
// of (users·120)·weight; summing an AS's prefixes in reverse.)
func TestBuildMatrixMatchesReference(t *testing.T) {
	scales := map[string]func(int64) topology.GenConfig{"tiny": topology.TinyGenConfig}
	if !testing.Short() {
		scales["small"] = topology.SmallGenConfig
	}
	for name, cfg := range scales {
		for _, seed := range []int64{1, 7} {
			m := setupScale(t, cfg(seed), seed)
			var want *Matrix
			withCPUs(1, func() { want = m.buildMatrix(m.referenceAccumulate) })
			if want.TotalBytes == 0 || len(want.Flows) == 0 || len(want.RefCDNByPrefix) == 0 {
				t.Fatalf("%s seed %d: empty reference matrix", name, seed)
			}
			for _, cpus := range []int{1, 2, 4} {
				got := buildAt(m, cpus)
				sameBits(t, "TotalBytes", got.TotalBytes, want.TotalBytes)
				sameBits(t, "TailBytes", got.TailBytes, want.TailBytes)
				sameBitsSlice(t, "PerService", got.PerService, want.PerService)
				sameBitsSlice(t, "ASLoadDense", got.ASLoadDense, want.ASLoadDense)
				sameBitsSlice(t, "LinkLoadDense", got.LinkLoadDense, want.LinkLoadDense)
				if len(got.RefCDNByPrefix) != len(want.RefCDNByPrefix) {
					t.Fatalf("RefCDNByPrefix: %d prefixes, reference %d",
						len(got.RefCDNByPrefix), len(want.RefCDNByPrefix))
				}
				for p, b := range want.RefCDNByPrefix {
					sameBits(t, "RefCDNByPrefix["+p.String()+"]", got.RefCDNByPrefix[p], b)
				}
				if len(got.Flows) != len(want.Flows) {
					t.Fatalf("%d flows, reference %d", len(got.Flows), len(want.Flows))
				}
				for i := range want.Flows {
					if got.Flows[i] != want.Flows[i] {
						t.Fatalf("%s seed %d GOMAXPROCS %d: flow %d is %+v, reference %+v",
							name, seed, cpus, i, got.Flows[i], want.Flows[i])
					}
				}
			}
		}
	}
}

// TestQueriesPerDayMatchesReference checks the one demand definition against
// the pre-split expression for every ⟨prefix, service⟩ of a tiny world.
func TestQueriesPerDayMatchesReference(t *testing.T) {
	m := setup(t, 9)
	var idle, bots, skipped, live int
	for _, p := range m.Top.AllPrefixes() {
		switch {
		case m.Users.UsersIn(p) == 0:
			idle++
		case m.IsBotPrefix(p):
			bots++
		}
		for _, svc := range m.Cat.Services {
			q := pairQueries(m, p, svc)
			sameBits(t, "QueriesPerDay", q, referenceQueriesPerDay(m, p, svc))
			sameBits(t, "daily bytes", q*svc.BytesPerQuery, referenceDailyBytes(m, p, svc))
			if q > 0 {
				live++
			} else if m.Users.UsersIn(p) > 0 {
				skipped++
			}
		}
	}
	if idle == 0 || bots == 0 || skipped == 0 || live == 0 {
		t.Errorf("sweep missed a class: %d zero-user and %d bot prefixes, %d skipped and %d live pairs",
			idle, bots, skipped, live)
	}
}
