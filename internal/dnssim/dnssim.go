// Package dnssim models the DNS machinery the paper's measurement
// techniques exploit:
//
//   - a Google-Public-DNS-like public resolver with regional PoPs whose
//     caches are keyed by ⟨PoP, domain, ECS /24 scope⟩ and expire after the
//     record TTL — the substrate for §3.1.2 approach 1 (cache probing);
//   - the root server system with per-letter query logs capturing
//     Chromium's random-label interception probes — §3.1.2 approach 2;
//   - per-service authoritative behaviour (ECS-aware or resolver-based
//     redirection) — §3.2.
//
// Cache state is virtual: instead of materializing billions of cache
// entries, a probe consults the client query rate feeding that entry and
// draws a deterministic Bernoulli with p = 1 − exp(−rate·TTL), evaluated
// once per TTL window. This is exactly the occupancy distribution of a
// TTL cache under Poisson arrivals, at a millionth of the memory.
package dnssim

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"itmap/internal/faults"
	"itmap/internal/geo"
	"itmap/internal/obs"
	"itmap/internal/randx"
	"itmap/internal/services"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/users"
)

// PoP is one public-resolver point of presence.
type PoP struct {
	ID   int
	Name string
	City geo.City
}

// RateSource supplies client DNS query rates. The traffic model implements
// it; dnssim stays independent of demand modelling. A rate is resolved in
// three parts: what no domain and no instant changes (Clients, once per
// /24), what no instant changes (QueryRate, once per ⟨domain, /24⟩), and
// the instant (QueryRate.At, or a sampling grid).
type RateSource interface {
	// Clients resolves the per-prefix half of the rates at which clients in
	// the /24 scope query the public resolver.
	Clients(scope topology.PrefixID) Clients
	// QueryRate finishes c for one ECS-scoped service: its time-invariant
	// half.
	QueryRate(svc *services.Service, c Clients) QueryRate
}

// Clients is the per-prefix half of every ⟨domain, scope⟩ client query
// rate: what the rate source knows of a /24's clients before it is told the
// domain. The zero value (Share 0) is a scope whose clients never reach the
// public resolver.
type Clients struct {
	// Scope is the /24.
	Scope topology.PrefixID
	// Share is the fraction of the scope's DNS queries that go to the
	// public resolver.
	Share float64
	// Usage is the chance the scope's population uses a given service at
	// all.
	Usage float64
	// Flat marks a source with no diurnal cycle (automation never sleeps).
	Flat bool
	// Activity is the scope's population curve.
	Activity users.Activity
}

// QueryRate is the time-invariant half of one ⟨domain, scope⟩ client query
// rate: a day-mean rate and the diurnal curve that modulates it.
type QueryRate struct {
	// PerHour is the day-mean rate in queries per simulated hour.
	PerHour float64
	// Flat marks a source with no diurnal cycle (automation never sleeps).
	Flat bool
	// Activity is the scope's population curve; the rate follows it,
	// normalized to mean 1.
	Activity users.Activity
}

// At returns the rate (queries per simulated hour) at time t.
//
//itmlint:allow deadexport test support: internal/traffic's reference-identity tests evaluate a prepared rate through it
func (q QueryRate) At(t simtime.Time) float64 {
	return q.PerHour * q.diurnal(t)
}

// diurnal is the instantaneous activity multiplier (mean 1 over a day).
func (q QueryRate) diurnal(t simtime.Time) float64 {
	if m, ok := q.steady(); ok {
		return m
	}
	return q.swing(q.Activity.At(t))
}

// steady reports whether the multiplier is the same at every instant — a
// flat source, or a scope nobody lives in — and if so, its value.
func (q QueryRate) steady() (float64, bool) {
	switch {
	case q.Flat:
		return 1, true
	case q.Activity.Users == 0:
		return 0, true
	}
	return 0, false
}

// swing normalizes an activity level of the scope to the multiplier.
func (q QueryRate) swing(active float64) float64 {
	return active / q.Activity.Users / users.DiurnalMean
}

// PublicResolver models the public DNS service ("GPDNS" in comments).
type PublicResolver struct {
	top    *topology.Topology
	cat    *services.Catalog
	rates  RateSource
	seed   uint64
	faults *faults.Plan

	// Owner is the hypergiant operating the resolver; root-log entries
	// for its egress queries attribute to this AS.
	Owner topology.ASN
	PoPs  []*PoP

	home     memo[geo.Coord, *PoP] // city coordinate -> nearest PoP
	adoption memo[string, float64] // country code -> AdoptionShare
}

// memo caches a pure function over a small key space (a world's few dozen
// cities and countries) that the probing sweeps hit once per prefix from
// many goroutines: a hit is one atomic load and a map read, no lock; a miss
// republishes a copy of the map with the new entry. Racing misses compute —
// and publish — the same value.
type memo[K comparable, V any] struct {
	mu sync.Mutex // serializes republishing
	m  atomic.Pointer[map[K]V]
}

func (c *memo[K, V]) load(k K) (V, bool) {
	if m := c.m.Load(); m != nil {
		v, ok := (*m)[k]
		return v, ok
	}
	var zero V
	return zero, false
}

func (c *memo[K, V]) store(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := map[K]V{}
	if m := c.m.Load(); m != nil {
		next = maps.Clone(*m)
	}
	next[k] = v
	c.m.Store(&next)
}

// The resolver's families.
var (
	probesAnswered = obs.NewCounter("itm_dns_probes_total", "Cache-occupancy lookups answered (hit or clean miss).")
	probeHits      = obs.NewCounter("itm_dns_cache_hits_total", "Cache-occupancy lookups that found the record cached.")
	probeErrors    = obs.NewCounter("itm_dns_probe_errors_total",
		"Cache probes answered with an injected transient fault, by kind.", "kind")
	popsGauge = obs.NewGauge("itm_dns_pops", "Public-resolver points of presence.")
)

// Lookups tallies cache-occupancy lookups: answered (hit or clean miss) and
// hits among them. A sweep counts its probes into one (Probe.AtSlot) and
// adds it to the process counters once (Publish).
type Lookups struct {
	Answered, Hits uint64
}

// Add folds o into l.
func (l *Lookups) Add(o Lookups) {
	l.Answered += o.Answered
	l.Hits += o.Hits
}

// Publish adds the tally to itm_dns_probes_total and
// itm_dns_cache_hits_total.
func (l Lookups) Publish() {
	if l.Answered > 0 {
		probesAnswered.Add(l.Answered)
	}
	if l.Hits > 0 {
		probeHits.Add(l.Hits)
	}
}

// NewPublicResolver places PoPs at every region hub and in every country
// with more than 60M Internet users present in the world.
func NewPublicResolver(top *topology.Topology, cat *services.Catalog, owner topology.ASN, seed int64) *PublicResolver {
	pr := &PublicResolver{
		top:   top,
		cat:   cat,
		seed:  uint64(seed),
		Owner: owner,
	}
	seen := map[string]bool{}
	addPoP := func(city geo.City) {
		if seen[city.Name] {
			return
		}
		seen[city.Name] = true
		pr.PoPs = append(pr.PoPs, &PoP{ID: len(pr.PoPs), Name: city.Name, City: city})
	}
	for _, r := range geo.Regions() {
		if hub := geo.RegionHub(r); hub.Name != "" {
			addPoP(hub)
		}
	}
	// Countries actually present in the world (with eyeballs).
	present := map[string]bool{}
	for _, a := range top.ASes {
		if a.Type == topology.Eyeball {
			present[a.Country] = true
		}
	}
	var codes []string
	for c := range present {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, code := range codes {
		c, err := geo.CountryByCode(code)
		if err == nil && c.InternetUsersM > 60 {
			addPoP(c.Capital)
		}
	}
	// Declare the fault-outcome family up front so a fault-free run still
	// exposes its HELP/TYPE header.
	obs.Declare(probeErrors)
	popsGauge.Set(float64(len(pr.PoPs)))
	return pr
}

// SetRateSource wires in the demand model. Must be called before probing.
func (pr *PublicResolver) SetRateSource(rs RateSource) { pr.rates = rs }

// SetFaultPlan wires a fault-injection schedule into the probe-facing
// surfaces. A nil plan (the default) restores fault-free behaviour exactly.
// Like SetRateSource, call it between campaigns, not during one.
func (pr *PublicResolver) SetFaultPlan(pl *faults.Plan) { pr.faults = pl }

// FaultPlan returns the active fault schedule (possibly nil).
func (pr *PublicResolver) FaultPlan() *faults.Plan { return pr.faults }

// Catalog returns the service catalog the resolver serves (public
// knowledge: every record's TTL is visible in responses).
func (pr *PublicResolver) Catalog() *services.Catalog { return pr.cat }

// HomePoP returns the PoP that serves clients in the given prefix (the
// nearest PoP; clients reach the resolver via anycast), or nil for a prefix
// the topology places nowhere. The answer depends only on where the prefix
// is, so it is memoized per city coordinate: a world's prefixes sit in a few
// dozen cities, and the PoP list is fixed at construction. Safe for
// concurrent use, and lock-free once a city is known: probing campaigns fan
// out across goroutines and ask once per prefix (Target).
func (pr *PublicResolver) HomePoP(p topology.PrefixID) *PoP {
	city, ok := pr.top.PrefixCity[p]
	if !ok {
		return nil
	}
	if pop, ok := pr.home.load(city.Coord); ok {
		return pop
	}
	best, bestDist := 0, math.Inf(1)
	for _, pop := range pr.PoPs {
		d := geo.DistanceKm(city.Coord, pop.City.Coord)
		if d < bestDist {
			best, bestDist = pop.ID, d
		}
	}
	pr.home.store(city.Coord, pr.PoPs[best])
	return pr.PoPs[best]
}

// AdoptionShare returns the fraction of a country's DNS queries sent to the
// public resolver. Globally ~30-35% (the paper cites [16]), with per-country
// skew — one of the biases §3.1.3 says must be mitigated. A pure function of
// (seed, country), asked once per prepared probe: memoized per country code.
func (pr *PublicResolver) AdoptionShare(countryCode string) float64 {
	if s, ok := pr.adoption.load(countryCode); ok {
		return s
	}
	s := pr.adoptionShare(countryCode)
	pr.adoption.store(countryCode, s)
	return s
}

// adoptionShare is the adoption law itself.
func (pr *PublicResolver) adoptionShare(countryCode string) float64 {
	j := randx.HashLognormal(0, 0.30, pr.seed, 0xadf0, hashString(countryCode))
	s := 0.32 * j
	return math.Max(0.10, math.Min(0.55, s))
}

// ProbeOpts identifies one probe to the fault layer.
type ProbeOpts struct {
	// Source is the probing host's identity — per-source throttling keys
	// on it, so campaigns with more probers spread the ban risk.
	Source uint64
	// Attempt numbers retries of the same logical probe; each attempt is
	// a fresh datagram and re-rolls per-packet faults.
	Attempt int
}

// Probe is a cache probe of one ⟨PoP, domain, ECS /24⟩ with everything that
// does not depend on time already resolved: the record's TTL, whether the
// PoP is the prefix's home, the fault-layer key, the draw's hash folded over
// every input but the TTL window, and the client query rate's time-invariant
// half. The rule has four tiers: what is constant per prefix belongs on the
// sweep's Target; what is constant per ⟨domain, prefix⟩ belongs in Prepare;
// what is constant per ⟨timezone, instant⟩ belongs on the campaign's
// users.Grid (Over, then AtSlot); what is constant per city is memoized
// behind HomePoP and services.Catalog.NearestSiteTo. At pays only for what
// moves with both prefix and time. A Probe is a snapshot: Prepare again
// after SetRateSource or SetFaultPlan.
type Probe struct {
	faults *faults.Plan
	pop    int

	// early is reported before the fault roll (a probe that cannot be
	// addressed never reaches the network), late after it.
	early, late error

	home bool   // pop is ecs's home PoP, the only place the entry exists
	key  uint64 // fault-layer identity of ⟨domain, ecs⟩
	draw uint64 // Hash64(seed, 0xcac4e, pop, domain, ecs): one Fold short of the draw
	ttl  simtime.Time
	rate QueryRate

	// Set by Over: the sampling grid, the rate's multiplier when it is the
	// same at every instant, and otherwise the timezone's row of the grid.
	grid    *users.Grid
	steady  float64
	factors []float64
}

// Target is one ECS /24 resolved for a sweep: its home PoP and the
// per-prefix half of its clients' query rates. A sweep resolves each target
// prefix once and prepares a probe of it per domain (PrepareHome), however
// many domains and days it asks.
type Target struct {
	Prefix topology.PrefixID
	// Home is the prefix's home PoP (HomePoP): nil for a prefix the
	// topology places nowhere, which a sweep skips.
	Home *PoP

	clients Clients
}

// Target resolves ecs for a sweep.
func (pr *PublicResolver) Target(ecs topology.PrefixID) Target {
	t := Target{Prefix: ecs, Home: pr.HomePoP(ecs)}
	if t.Home != nil && pr.rates != nil {
		t.clients = pr.rates.Clients(ecs)
	}
	return t
}

// Prepare resolves the time-invariant half of probing domain with the given
// ECS prefix against a PoP: a non-recursive (RD=0) query that reports
// whether the record is cached there and does not populate the cache. For
// ECS-supporting services the cache entry is scoped to the /24; for others
// the scope collapses to the whole PoP and per-prefix attribution is
// impossible — exactly the limitation the paper notes. It never fails: what is wrong with the probe
// (no rate source, unknown PoP, NXDOMAIN, a domain without per-prefix ECS
// scoping) is reported by every At.
func (pr *PublicResolver) Prepare(popID int, domain string, ecs topology.PrefixID) Probe {
	t := pr.Target(ecs)
	return pr.prepare(popID, &t, domain)
}

// PrepareHome is Prepare(t.Home.ID, domain, t.Prefix) for a target with a
// home (t.Home not nil).
func (pr *PublicResolver) PrepareHome(t *Target, domain string) Probe {
	return pr.prepare(t.Home.ID, t, domain)
}

// prepare is Prepare given the resolved target.
func (pr *PublicResolver) prepare(popID int, t *Target, domain string) Probe {
	p := Probe{faults: pr.faults, pop: popID}
	if pr.rates == nil {
		p.early = fmt.Errorf("dnssim: no rate source wired")
		p.late = p.early // the fault-free lookup reports it too
		return p
	}
	if popID < 0 || popID >= len(pr.PoPs) {
		p.early = fmt.Errorf("dnssim: unknown PoP %d", popID)
	}
	domHash := hashString(domain)
	p.key = randx.Hash64(domHash, uint64(t.Prefix))
	svc, ok := pr.cat.ByDomain(domain)
	if !ok {
		p.late = fmt.Errorf("dnssim: NXDOMAIN %s", domain)
		return p
	}
	if !svc.ECS || svc.Kind == services.Anycast {
		p.late = fmt.Errorf("dnssim: %s does not support per-prefix ECS scoping", domain)
		return p
	}
	// The entry exists only at the clients' home PoP.
	if t.Home == nil || t.Home.ID != popID {
		return p
	}
	p.home = true
	p.draw = randx.Hash64(pr.seed, 0xcac4e, uint64(popID), domHash, uint64(t.Prefix))
	p.ttl = simtime.Seconds(float64(svc.TTLSeconds))
	p.rate = pr.rates.QueryRate(svc, t.clients)
	return p
}

// At issues the probe at time t. With a fault plan set it can return the
// typed transient errors faults.ErrTimeout, faults.ErrServfail, and
// faults.ErrThrottled instead of answering; opt identifies the datagram to
// the fault layer. The lookup reaches the process counters at once.
func (p *Probe) At(t simtime.Time, opt ProbeOpts) (bool, error) {
	if err := p.undelivered(t, opt); err != nil {
		return false, err
	}
	return p.lookup(t)
}

// Over puts the probe on a campaign's sampling grid, for AtSlot. The grid
// belongs to one goroutine (see users.Grid), and so does a probe on it.
func (p *Probe) Over(g *users.Grid) {
	p.grid = g
	var ok bool
	if p.steady, ok = p.rate.steady(); !ok {
		p.factors = p.rate.Activity.Factors(g)
	}
}

// AtSlot is At(g.Time(r), opt) for the grid g given to Over — the same
// fault roll, the same decision, the same answer — with the diurnal factor
// read from the grid instead of recomputed, and the lookup counted into n
// instead of the process counters: the sweep publishes its tally once.
func (p *Probe) AtSlot(r int, opt ProbeOpts, n *Lookups) (bool, error) {
	t := p.grid.Time(r)
	if err := p.undelivered(t, opt); err != nil {
		return false, err
	}
	return p.occupied(t, p.slotDiurnal(r), n)
}

// slotDiurnal is p.rate.diurnal(p.grid.Time(r)), off the grid.
func (p *Probe) slotDiurnal(r int) float64 {
	if p.factors == nil {
		return p.steady
	}
	return p.rate.swing(p.rate.Activity.Users * p.factors[r])
}

// undelivered reports why the probe sent at t gets no answer from the cache:
// it cannot be addressed, or the fault layer ate it.
func (p *Probe) undelivered(t simtime.Time, opt ProbeOpts) error {
	if p.early != nil {
		return p.early
	}
	err := p.faults.ProbeFault(p.pop, opt.Source, p.key, opt.Attempt, t)
	if err != nil {
		probeErrors.With(faultKind(err)).Inc()
	}
	return err
}

// faultKind names a transient fault for the error-kind metric label.
func faultKind(err error) string {
	switch {
	case errors.Is(err, faults.ErrTimeout):
		return "timeout"
	case errors.Is(err, faults.ErrServfail):
		return "servfail"
	case errors.Is(err, faults.ErrThrottled):
		return "throttled"
	}
	return "other"
}

// lookup is the fault-free cache-occupancy check at an arbitrary instant,
// published as it answers. The wire front end calls it directly: it
// evaluates faults itself, with per-datagram entropy, before consulting the
// cache.
func (p *Probe) lookup(t simtime.Time) (bool, error) {
	var n Lookups
	hit, err := p.occupied(t, p.rate.diurnal(t), &n)
	n.Publish()
	return hit, err
}

// occupied is the occupancy law, the one place a probe becomes a hit or a
// miss: is the entry cached at t, given the client rate's diurnal multiplier
// at t? An entry exists only at the home PoP of a prefix-scoped record; there
// it is present with probability 1 − exp(−rate·TTL), drawn once per TTL
// window (occupiedDraw). An answer is counted into n.
func (p *Probe) occupied(t simtime.Time, diurnal float64, n *Lookups) (bool, error) {
	if !p.home || p.late != nil {
		return false, p.late
	}
	x := p.rate.PerHour * diurnal * float64(p.ttl)
	window := uint64(math.Floor(float64(t / p.ttl)))
	hit := occupiedDraw(randx.Unit(randx.Fold(p.draw, window)), x)
	n.Answered++
	if hit {
		n.Hits++
	}
	return hit, nil
}

// ResolverOfAS returns the prefix hosting an AS's ISP resolver (its first
// prefix; the resolver answers at .53). Root-log entries from clients using
// their ISP resolver carry this prefix.
func ResolverOfAS(top *topology.Topology, asn topology.ASN) (topology.PrefixID, bool) {
	a, ok := top.ASes[asn]
	if !ok || len(a.Prefixes) == 0 {
		return 0, false
	}
	return a.Prefixes[0], true
}

func hashString(s string) uint64 {
	// FNV-1a.
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
