package traffic

import (
	"slices"
	"sort"

	"itmap/internal/obs"
	"itmap/internal/parallel"
	"itmap/internal/randx"
	"itmap/internal/services"
	"itmap/internal/topology"
)

// Flow is one aggregated ground-truth flow: all traffic from one client AS
// to one serving site for one service.
type Flow struct {
	ClientAS topology.ASN
	Svc      services.ServiceID
	Site     *services.Site
	Bytes    float64
	// Hops is the AS-path length from the client AS to the AS hosting
	// the serving site (0 = served inside the client's own network).
	Hops int
}

// Matrix is the materialized ground-truth traffic map the ITM tries to
// estimate: who talks to whom, how much, and over which links.
type Matrix struct {
	// PerService indexes daily bytes by ServiceID.
	PerService []float64
	// PerOwner is daily bytes by service-owner AS.
	PerOwner map[topology.ASN]float64
	// ClientASBytes is daily bytes by client AS.
	ClientASBytes map[topology.ASN]float64
	// ASLoad is the daily bytes carried by (originating at, terminating
	// at, or transiting) each AS.
	ASLoad map[topology.ASN]float64
	// LinkLoad is daily bytes per inter-AS link.
	LinkLoad map[topology.LinkKey]float64
	// RefCDNByPrefix is the reference CDN's "server log": daily bytes
	// per client prefix — the validation ground truth of §3.1.2.
	RefCDNByPrefix map[topology.PrefixID]float64
	// RefCDNByAS aggregates the server log by client AS.
	RefCDNByAS map[topology.ASN]float64
	// Flows lists every aggregated flow, ordered by ascending client ASN
	// (the order the build visits client ASes).
	Flows []Flow
	// TailBytes is the volume to long-tail self-hosted destinations
	// (counted in TotalBytes, PerOwner, ASLoad, LinkLoad but not
	// PerService).
	TailBytes float64
	// TotalBytes is the world's daily traffic volume.
	TotalBytes float64

	// ASLoadDense is ASLoad indexed by the topology's dense AS index,
	// and LinkLoadDense is LinkLoad indexed by Links' dense link ID —
	// the allocation-free views hot analyses should prefer over the
	// map forms above.
	ASLoadDense   []float64
	LinkLoadDense []float64
	// Links is the dense link index LinkLoadDense is keyed by.
	Links *topology.LinkIndex
}

// matrixShards is the number of client-AS shards the build fans out. It is
// a fixed constant — NOT tied to GOMAXPROCS — so the shard boundaries and
// the left-to-right merge order (and therefore every floating-point sum)
// are identical no matter how many CPUs execute the shards.
const matrixShards = 32

// shardAcc is one shard's private accumulator: dense slices indexed by the
// topology's AS/link indices, so the per-flow hot path touches no maps and
// allocates nothing.
type shardAcc struct {
	perService     []float64
	perOwner       []float64 // by dense AS index
	clientASBytes  []float64 // by dense AS index
	asLoad         []float64 // by dense AS index
	refCDNByAS     []float64 // by dense AS index
	linkLoad       []float64 // by dense link ID
	refCDNByPrefix map[topology.PrefixID]float64
	flows          []Flow
	tailBytes      float64
	totalBytes     float64
	pathBuf        []int32  // reusable AppendIndexPath scratch
	rows           []demand // reusable: the current client AS's prefixes
}

func newShardAcc(nSvc, nAS, nLink int) *shardAcc {
	return &shardAcc{
		perService:     make([]float64, nSvc),
		perOwner:       make([]float64, nAS),
		clientASBytes:  make([]float64, nAS),
		asLoad:         make([]float64, nAS),
		refCDNByAS:     make([]float64, nAS),
		linkLoad:       make([]float64, nLink),
		refCDNByPrefix: map[topology.PrefixID]float64{},
	}
}

// mergeFrom folds src into dst. Called in ascending shard order, so the
// summation order per cell is a fixed left fold over shards.
func (dst *shardAcc) mergeFrom(src *shardAcc) {
	addSlice(dst.perService, src.perService)
	addSlice(dst.perOwner, src.perOwner)
	addSlice(dst.clientASBytes, src.clientASBytes)
	addSlice(dst.asLoad, src.asLoad)
	addSlice(dst.refCDNByAS, src.refCDNByAS)
	addSlice(dst.linkLoad, src.linkLoad)
	for p, b := range src.refCDNByPrefix {
		dst.refCDNByPrefix[p] += b
	}
	dst.tailBytes += src.tailBytes
	dst.totalBytes += src.totalBytes
}

func addSlice(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// BuildMatrix materializes the ground truth for one average day. Client
// ASes are partitioned into matrixShards contiguous dense-index ranges; one
// goroutine per CPU claims shards, accumulates into private dense partials,
// and the partials are merged in shard order — so the result is
// byte-identical for a given seed at any CPU count.
func (m *Model) BuildMatrix() *Matrix { return m.buildMatrix(m.accumulateClientAS) }

// accumulator adds one client AS's demand into a shard accumulator; see
// accumulateClientAS, the only one outside the oracle test.
type accumulator func(acc *shardAcc, li *topology.LinkIndex, ci int,
	clientAS topology.ASN, ownerIdx []int32, tailHosts []topology.ASN)

// The matrix build's families.
var (
	buildsTotal = obs.NewCounter("itm_traffic_matrix_builds_total", "Ground-truth traffic-matrix builds.")
	shardsTotal = obs.NewCounter("itm_traffic_matrix_shards_total",
		"Matrix build shards accumulated (fixed layout, never worker-count dependent).")
	flowsTotal = obs.NewCounter("itm_traffic_flows_total",
		"Aggregated client-to-site flows materialized across all builds.")
	lastMatrixBytes = obs.NewGauge("itm_traffic_total_bytes",
		"Daily traffic volume of the most recently built matrix, in bytes.")
)

// buildMatrix is the shard layout and the merge, over any accumulator: the
// oracle test runs the pre-split accumulator through these same shards.
func (m *Model) buildMatrix(accumulate accumulator) *Matrix {
	top := m.Top
	asns := top.ASNs()
	li := top.LinkIndex() // built before fan-out; lazy build is not thread-safe
	n := len(asns)
	nSvc := len(m.Cat.Services)

	// Tail destinations: every enterprise and academic AS self-hosts a
	// little content.
	var tailHosts []topology.ASN
	tailHosts = append(tailHosts, top.ASesOfType(topology.Enterprise)...)
	tailHosts = append(tailHosts, top.ASesOfType(topology.Academic)...)

	// Hoist the owner-ASN → dense-index lookups out of the per-AS loop.
	ownerIdx := make([]int32, nSvc)
	for i, svc := range m.Cat.Services {
		oi, _ := top.Index(svc.Owner)
		ownerIdx[i] = int32(oi)
	}

	shards := matrixShards
	if shards > n {
		shards = n
	}
	root := obs.StartSpan("traffic.build_matrix", 0).
		SetAttrInt("client_ases", int64(n)).SetAttrInt("shards", int64(shards))
	accs := make([]*shardAcc, shards)
	if shards > 0 {
		per := (n + shards - 1) / shards
		parallel.ForEach(shards, func(s int) {
			sp := root.Child("shard", 0).SetOrder(s).SetAttrInt("shard", int64(s))
			lo, hi := s*per, (s+1)*per
			if hi > n {
				hi = n
			}
			acc := newShardAcc(nSvc, n, li.NumLinks())
			for ci := lo; ci < hi; ci++ {
				accumulate(acc, li, ci, asns[ci], ownerIdx, tailHosts)
			}
			accs[s] = acc
			sp.SetAttrInt("flows", int64(len(acc.flows))).End(0)
		})
	}

	merge := root.Child("merge", 0).SetOrder(shards)
	var total *shardAcc
	if shards > 0 {
		total = accs[0]
		for s := 1; s < shards; s++ {
			total.mergeFrom(accs[s])
		}
	} else {
		total = newShardAcc(nSvc, 0, 0)
	}
	merge.SetAttrInt("shards_merged", int64(shards)).End(0)

	mx := &Matrix{
		PerService:     total.perService,
		PerOwner:       map[topology.ASN]float64{},
		ClientASBytes:  map[topology.ASN]float64{},
		ASLoad:         map[topology.ASN]float64{},
		LinkLoad:       map[topology.LinkKey]float64{},
		RefCDNByPrefix: total.refCDNByPrefix,
		RefCDNByAS:     map[topology.ASN]float64{},
		TailBytes:      total.tailBytes,
		TotalBytes:     total.totalBytes,
		ASLoadDense:    total.asLoad,
		LinkLoadDense:  total.linkLoad,
		Links:          li,
	}
	// Materialize the map views from the dense forms (zero cells stay
	// absent, matching the serial build's sparse maps).
	for i, asn := range asns {
		if v := total.perOwner[i]; v != 0 {
			mx.PerOwner[asn] = v
		}
		if v := total.clientASBytes[i]; v != 0 {
			mx.ClientASBytes[asn] = v
		}
		if v := total.asLoad[i]; v != 0 {
			mx.ASLoad[asn] = v
		}
		if v := total.refCDNByAS[i]; v != 0 {
			mx.RefCDNByAS[asn] = v
		}
	}
	for id, v := range total.linkLoad {
		if v != 0 {
			mx.LinkLoad[li.Key(int32(id))] = v
		}
	}
	nFlows := 0
	for _, acc := range accs {
		nFlows += len(acc.flows)
	}
	mx.Flows = make([]Flow, 0, nFlows)
	for _, acc := range accs {
		mx.Flows = append(mx.Flows, acc.flows...)
	}
	buildsTotal.Inc()
	shardsTotal.Add(uint64(shards))
	flowsTotal.Add(uint64(len(mx.Flows)))
	lastMatrixBytes.Set(mx.TotalBytes)
	root.SetAttrInt("flows", int64(len(mx.Flows))).End(0)
	return mx
}

// accumulateClientAS adds one client AS's demand — catalog services plus
// the self-hosted long tail — into the shard accumulator. ci is the
// client's dense index and clientAS == asns[ci].
func (m *Model) accumulateClientAS(acc *shardAcc, li *topology.LinkIndex,
	ci int, clientAS topology.ASN, ownerIdx []int32, tailHosts []topology.ASN) {
	a := m.Top.ASes[clientAS]
	if m.Users.ASUsers(clientAS) == 0 {
		return
	}
	// The per-prefix half of the demand law, once per prefix instead of once
	// per ⟨prefix, service⟩.
	rows := slices.Grow(acc.rows[:0], len(a.Prefixes))
	for _, p := range a.Prefixes {
		rows = append(rows, m.demand(p))
	}
	acc.rows = rows
	for _, svc := range m.Cat.Services {
		// Per-AS volume: sum of the pure per-prefix function, in prefix
		// order.
		weight := m.Cat.Popularity.Weight(svc.Rank)
		refCDN := svc.Owner == m.Cat.ReferenceCDN
		bytes := 0.0
		for _, d := range rows {
			b := m.queriesPerDay(d, svc, weight) * svc.BytesPerQuery
			bytes += b
			if refCDN && b > 0 {
				acc.refCDNByPrefix[d.prefix] += b
			}
		}
		if bytes == 0 {
			continue
		}
		if refCDN {
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

// routeFlow adds a flow's bytes to the AS and link loads along its BGP
// path and returns the hop count (-1 if unrouted). The path is streamed
// from the RIB's NextHop array into a reusable dense-index buffer — no
// per-flow allocation.
func (m *Model) routeFlow(acc *shardAcc, li *topology.LinkIndex,
	fromIdx int, from, to topology.ASN, bytes float64) int {
	if from == to {
		acc.asLoad[fromIdx] += bytes
		return 0
	}
	rib := m.Paths.RIBFor(to)
	if rib == nil {
		return -1
	}
	buf, ok := rib.AppendIndexPath(acc.pathBuf[:0], fromIdx)
	acc.pathBuf = buf
	if !ok {
		return -1
	}
	prev := int(buf[0])
	acc.asLoad[prev] += bytes
	for _, v := range buf[1:] {
		i := int(v)
		acc.asLoad[i] += bytes
		acc.linkLoad[li.IDBetween(prev, i)] += bytes
		prev = i
	}
	return len(buf) - 1
}

// TopOwners returns service owners by descending traffic share.
func (mx *Matrix) TopOwners() []OwnerShare {
	out := make([]OwnerShare, 0, len(mx.PerOwner))
	for asn, b := range mx.PerOwner {
		out = append(out, OwnerShare{ASN: asn, Bytes: b, Share: b / mx.TotalBytes})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].ASN < out[j].ASN
	})
	return out
}

// OwnerShare is one service owner's traffic share.
type OwnerShare struct {
	ASN   topology.ASN
	Bytes float64
	Share float64
}

// CumulativeTopShare returns the traffic share of the top-k owners.
func (mx *Matrix) CumulativeTopShare(k int) float64 {
	owners := mx.TopOwners()
	if k > len(owners) {
		k = len(owners)
	}
	total := 0.0
	for _, o := range owners[:k] {
		total += o.Share
	}
	return total
}
