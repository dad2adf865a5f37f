// Package cacheprobe implements the paper's §3.1.2 approach 1: discovering
// which prefixes host active clients by issuing non-recursive, ECS-tagged
// queries for popular domains against the public resolver's PoP caches.
// A cache hit for ⟨domain, prefix⟩ means a client in that prefix queried the
// domain within the record's TTL — a binary activity signal that, sampled
// over a day, becomes a relative-activity estimate (§3.1.3, Figure 2).
//
// One preparation for every day: the paper re-sweeps every /24 daily, and
// most of a sweep does not change from one day to the next. A sweep
// resolves each target prefix once (dnssim.Target: home PoP, the clients'
// per-prefix rate half) and prepares each ⟨prefix, domain⟩ probe once;
// DiscoverDays then asks that probe on every day's rounds, so a campaign of
// n days prepares what one day does. Each day's result, counters included,
// is the one a sweep of that day alone gives; the caller publishes a day's
// counters when it takes the day up (Discovery.Publish). The occupancy
// decision itself is exact and mostly exp-free (see dnssim's occupiedDraw).
package cacheprobe

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"

	"itmap/internal/dnssim"
	"itmap/internal/faults"
	"itmap/internal/parallel"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/users"
)

func mathLog(x float64) float64 { return math.Log(x) }

// Prober drives cache-probing campaigns. This is the naive client: with a
// fault plan active on the resolver, a probe that times out, is throttled,
// or draws a SERVFAIL is simply wasted — the prober neither retries nor
// reschedules, so its coverage degrades with the substrate. ResilientProber
// is the hardened variant.
type Prober struct {
	PR *dnssim.PublicResolver
	// Domains are the popular ECS-supporting domains to probe
	// (catalog.ECSDomains()); non-ECS domains cannot be localized.
	Domains []string
	// Source identifies the probing host to the fault layer. The naive
	// prober hammers from one source, so per-source bans hit everything.
	Source uint64
}

// Discovery is the result of a prefix-discovery sweep (Figure 1a/1b input).
// Found is an ascending list: the naive sweeps take ascending targets, cut
// them into shards in order and join the shards' lists by concatenation,
// and the resilient sweep sorts its list once. A map's active prefixes are
// the list itself (core.BuildMap); Has asks it by binary search.
type Discovery struct {
	// Found lists, ascending, the prefixes with at least one cache hit.
	Found []topology.PrefixID
	// FoundASes marks ASes owning at least one found prefix.
	FoundASes map[topology.ASN]bool
	// ByPoP counts discovered prefixes per probed PoP (Figure 1a).
	ByPoP map[int]int
	// Probes is the total probe count issued.
	Probes int
	// Failed counts probes lost to transient faults (always 0 without a
	// fault plan).
	Failed int

	// lookups is the naive sweep's tally of cache lookups, for Publish.
	// The resilient sweep's probes publish their own.
	lookups dnssim.Lookups
}

// newDiscovery returns an empty discovery sized for found prefixes.
func newDiscovery(found int) *Discovery {
	return &Discovery{
		Found:     make([]topology.PrefixID, 0, found),
		FoundASes: map[topology.ASN]bool{},
		ByPoP:     map[int]int{},
	}
}

// Has reports whether the sweep found p.
func (d *Discovery) Has(p topology.PrefixID) bool {
	_, ok := slices.BinarySearch(d.Found, p)
	return ok
}

// merge folds o, the discovery of the cut of the targets that follows d's,
// into d.
func (d *Discovery) merge(o *Discovery) {
	d.Found = append(d.Found, o.Found...)
	for asn := range o.FoundASes {
		d.FoundASes[asn] = true
	}
	for pop, c := range o.ByPoP {
		d.ByPoP[pop] += c
	}
	d.Probes += o.Probes
	d.Failed += o.Failed
	d.lookups.Add(o.lookups)
}

// Publish adds a naive sweep's totals to the process counters: probe
// datagrams, probes lost, prefixes found and the resolver's cache lookups.
// DiscoverPrefixes publishes its own day; a caller of DiscoverDays publishes
// each day once, when it takes the day up.
func (d *Discovery) Publish() {
	probeDatagrams.With("naive").Add(uint64(d.Probes))
	probeFailed.With("naive").Add(uint64(d.Failed))
	prefixesFound.Add(uint64(len(d.Found)))
	d.lookups.Publish()
}

// DiscoverPrefixes sweeps the given prefixes, which must ascend strictly (as
// Topology.AllPrefixes lists them): for each prefix it probes the
// prefix's home PoP for every domain at `rounds` times spread across one
// simulated day starting at start. More rounds catch lower-activity
// prefixes (more TTL windows sampled). It is DiscoverDays over that one day,
// with the day's counters published.
func (pb *Prober) DiscoverPrefixes(top *topology.Topology, prefixes []topology.PrefixID, start simtime.Time, rounds int) (*Discovery, error) {
	days, err := pb.DiscoverDays(top, prefixes, []simtime.Time{start}, rounds)
	if err != nil {
		return nil, err
	}
	days[0].Publish()
	return days[0], nil
}

// DiscoverDays runs the discovery sweep of several days in one pass: day d
// samples the day that begins at starts[d], and its Discovery is, field for
// field, DiscoverPrefixes(top, prefixes, starts[d], rounds)'s. A sweep that
// fails on any day returns the error of the earliest such day. What does
// not change from day to day is paid once: each prefix is resolved once
// (dnssim.Target), each ⟨prefix, domain⟩ probe is prepared once, and it is
// then asked on each day's rounds, for every day that has not found the
// prefix yet. It publishes nothing: the caller publishes each day's
// counters (Discovery.Publish) when it takes that day up, so the process
// counters move day by day, as a sweep a day would move them.
//
// The targets must ascend strictly, as Topology.AllPrefixes lists them; a
// day's Found then ascends too, for free. Both naive sweeps cut the targets
// into one contiguous shard per CPU (GOMAXPROCS). Probe outcomes are pure
// functions of (PoP, domain, prefix, TTL window, fault plan), so results —
// and the error, if a shard hits one — are the serial sweep's at any CPU
// count. A real campaign is bounded by
// resolver rate limits instead.
func (pb *Prober) DiscoverDays(top *topology.Topology, prefixes []topology.PrefixID, starts []simtime.Time, rounds int) ([]*Discovery, error) {
	for i := 1; i < len(prefixes); i++ {
		if prefixes[i] <= prefixes[i-1] {
			return nil, fmt.Errorf("cacheprobe: targets not strictly ascending at %d (%v after %v)", i, prefixes[i], prefixes[i-1])
		}
	}
	var sw *daySweep
	if n := parallel.Workers(len(prefixes)); n == 1 {
		sw = pb.discover(top, prefixes, starts, rounds)
	} else {
		// Sized by its upper bound: a sweep finds most of what it probes.
		sw = newDaySweep(len(starts), len(prefixes))
		// A day's error is part of its shard's result, so no shard fails.
		err := sweepShards(n, len(prefixes), sw.merge, func(_, lo, hi int) (*daySweep, error) {
			return pb.discover(top, prefixes[lo:hi], starts, rounds), nil
		})
		if err != nil {
			return nil, err
		}
	}
	for _, err := range sw.errs {
		if err != nil {
			return nil, err
		}
	}
	return sw.days, nil
}

// daySweep is a discovery over several days: each day's result, and the
// error that stopped the day, if one did.
type daySweep struct {
	days []*Discovery
	errs []error
}

func newDaySweep(days, found int) *daySweep {
	sw := &daySweep{days: make([]*Discovery, days), errs: make([]error, days)}
	for d := range sw.days {
		sw.days[d] = newDiscovery(found)
	}
	return sw
}

// merge folds o, the sweep of the cut of the targets that follows sw's, into
// sw: a day keeps the first cut's error, as a serial sweep stops at it.
func (sw *daySweep) merge(o *daySweep) {
	for d, day := range sw.days {
		if sw.errs[d] == nil {
			sw.errs[d] = o.errs[d]
		}
		day.merge(o.days[d])
	}
}

// discover is DiscoverDays over one shard of the targets, on one goroutine:
// the sampling grid — every day's rounds, day d's round r at slot
// d·rounds+r — is the shard's own. A day stops at its first permanent error.
func (pb *Prober) discover(top *topology.Topology, prefixes []topology.PrefixID, starts []simtime.Time, rounds int) *daySweep {
	rounds = max(rounds, 1)
	// Sized by its upper bound: a sweep finds most of what it probes.
	sw := newDaySweep(len(starts), len(prefixes))
	opts := dnssim.ProbeOpts{Source: pb.Source}
	grid := roundsGrid(starts, rounds)
	found := make([]bool, len(starts))
	for _, p := range prefixes {
		t := pb.PR.Target(p)
		if t.Home == nil {
			continue
		}
		open := 0 // days still looking for p
		for d := range found {
			found[d] = false
			if sw.errs[d] == nil {
				open++
			}
		}
		for _, dom := range pb.Domains {
			if open == 0 {
				break
			}
			probe := pb.PR.PrepareHome(&t, dom)
			probe.Over(grid)
			for d, day := range sw.days {
				if found[d] || sw.errs[d] != nil {
					continue
				}
				for r := d * rounds; r < (d+1)*rounds; r++ {
					hit, err := probe.AtSlot(r, opts, &day.lookups)
					day.Probes++
					if err != nil {
						if faults.IsTransient(err) {
							day.Failed++
							continue
						}
						sw.errs[d] = err
						open--
						break
					}
					if hit {
						found[d] = true
						open--
						break
					}
				}
			}
		}
		for d, day := range sw.days {
			if found[d] {
				day.Found = append(day.Found, p)
				if asn, ok := top.OwnerOf(p); ok {
					day.FoundASes[asn] = true
				}
				day.ByPoP[t.Home.ID]++
			}
		}
	}
	return sw
}

// PoPCount is one bar of Figure 1a.
type PoPCount struct {
	PoP      *dnssim.PoP
	Prefixes int
}

// PoPCounts returns Figure 1a's series: prefixes discovered per PoP,
// descending.
func (d *Discovery) PoPCounts(pr *dnssim.PublicResolver) []PoPCount {
	var out []PoPCount
	for _, pop := range pr.PoPs {
		out = append(out, PoPCount{PoP: pop, Prefixes: d.ByPoP[pop.ID]})
	}
	slices.SortFunc(out, func(a, b PoPCount) int {
		return cmp.Or(cmp.Compare(b.Prefixes, a.Prefixes), cmp.Compare(a.PoP.ID, b.PoP.ID))
	})
	return out
}

// HitRates is the result of a hit-rate campaign (Figure 2 input).
type HitRates struct {
	// ByPrefix is hits/probes per prefix.
	ByPrefix map[topology.PrefixID]float64
	// Failed counts probes lost to transient faults; the naive campaign
	// keeps the full probe count in each denominator, so faults bias its
	// hit rates downward.
	Failed int
	// ByAS is the total cache-hit count per AS over the campaign (the
	// paper "recorded cache hit counts by AS"): it grows both with how
	// often each prefix's entry is cached and with how much address
	// space the AS's users occupy, which is what makes it track
	// subscriber counts.
	ByAS map[topology.ASN]float64
	// Probes per prefix issued.
	ProbesPerPrefix int

	// lookups is the campaign's tally of cache lookups, published with it.
	lookups dnssim.Lookups
}

// newHitRates returns an empty campaign result sized for prefixes targets.
func newHitRates(prefixes, probesPer int) *HitRates {
	return &HitRates{
		ByPrefix:        make(map[topology.PrefixID]float64, prefixes),
		ByAS:            map[topology.ASN]float64{},
		ProbesPerPrefix: probesPer,
	}
}

// merge folds o, the campaign over a disjoint cut of the targets (same
// domain and cadence), into hr.
func (hr *HitRates) merge(o *HitRates) {
	hr.ProbesPerPrefix = o.ProbesPerPrefix
	hr.Failed += o.Failed
	hr.lookups.Add(o.lookups)
	maps.Copy(hr.ByPrefix, o.ByPrefix)
	for asn, v := range o.ByAS {
		hr.ByAS[asn] += v
	}
}

// RateFromHitRate inverts the TTL-cache occupancy law to recover the
// underlying client query rate from an observed hit rate: occupancy under
// Poisson arrivals is p = 1 − e^(−rate·TTL), so rate = −ln(1−p)/TTL
// (queries per hour, with TTL in seconds). Fully saturated observations are
// clamped to the largest rate the probe count can resolve — with n probes,
// a hit rate of 1 only bounds the rate from below.
func RateFromHitRate(hitRate float64, probes int, ttlSeconds int) float64 {
	if hitRate <= 0 || ttlSeconds <= 0 {
		return 0
	}
	maxResolvable := 1 - 1/(2*float64(max(probes, 1)))
	if hitRate > maxResolvable {
		hitRate = maxResolvable
	}
	ttlHours := float64(ttlSeconds) / 3600
	return -mathLog(1-hitRate) / ttlHours
}

// roundsGrid is the discovery sweep's sampling grid: for each day, rounds
// instants spread evenly across the day that begins at its start, day d's
// round r at slot d·rounds+r.
func roundsGrid(starts []simtime.Time, rounds int) *users.Grid {
	times := make([]simtime.Time, 0, len(starts)*rounds)
	for _, start := range starts {
		for r := 0; r < rounds; r++ {
			times = append(times, start+simtime.Time(24*float64(r)/float64(rounds)))
		}
	}
	return users.NewGrid(times)
}

// probesPerDay is how many probes a campaign sampling every interval issues
// per prefix across one simulated day: at least one, so an interval longer
// than the day still measures something instead of dividing by zero.
func probesPerDay(interval simtime.Time) int {
	return max(int(24/float64(interval)), 1)
}

// MeasureHitRates probes one domain for every prefix every interval across
// one simulated day and reports hit rates. The intuition under test
// (§3.1.3): prefixes with more active users populate caches more often, so
// hit rate tracks relative activity.
func (pb *Prober) MeasureHitRates(top *topology.Topology, prefixes []topology.PrefixID, domain string, start simtime.Time, interval simtime.Time) (*HitRates, error) {
	var hr *HitRates
	var err error
	if n := parallel.Workers(len(prefixes)); n == 1 {
		hr, err = pb.hitRates(top, prefixes, domain, start, interval)
	} else {
		// Shards cut the prefix list, so every prefix is measured by one of them.
		hr = newHitRates(len(prefixes), 0)
		err = sweepShards(n, len(prefixes), hr.merge, func(_, lo, hi int) (*HitRates, error) {
			return pb.hitRates(top, prefixes[lo:hi], domain, start, interval)
		})
	}
	if err != nil {
		return nil, err
	}
	probeDatagrams.With("naive").Add(uint64(hr.ProbesPerPrefix * len(hr.ByPrefix)))
	probeFailed.With("naive").Add(uint64(hr.Failed))
	hr.lookups.Publish()
	return hr, nil
}

// hitRates is MeasureHitRates over one shard of the targets, on one
// goroutine.
func (pb *Prober) hitRates(top *topology.Topology, prefixes []topology.PrefixID, domain string, start simtime.Time, interval simtime.Time) (*HitRates, error) {
	if interval <= 0 {
		interval = 5 * simtime.Minute
	}
	probesPer := probesPerDay(interval)
	hr := newHitRates(len(prefixes), probesPer)
	opts := dnssim.ProbeOpts{Source: pb.Source}
	grid := users.Every(start, interval, probesPer)
	for _, p := range prefixes {
		t := pb.PR.Target(p)
		if t.Home == nil {
			continue
		}
		probe := pb.PR.PrepareHome(&t, domain)
		probe.Over(grid)
		hits := 0
		for r := 0; r < probesPer; r++ {
			hit, err := probe.AtSlot(r, opts, &hr.lookups)
			if err != nil {
				if faults.IsTransient(err) {
					hr.Failed++
					continue
				}
				return nil, err
			}
			if hit {
				hits++
			}
		}
		hr.ByPrefix[p] = float64(hits) / float64(probesPer)
		if asn, ok := top.OwnerOf(p); ok {
			hr.ByAS[asn] += float64(hits)
		}
	}
	return hr, nil
}
