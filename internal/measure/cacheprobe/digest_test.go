package cacheprobe

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"

	"itmap/internal/faults"
	"itmap/internal/resilience"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/world"
)

// The digests below were taken from the commit before probes were split
// into Prepare/At, when every probe recomputed the whole occupancy law.
// Campaign outputs are a pure function of (world, fault plan, prober
// config), so any change to the law's arithmetic, hash inputs, fault keys
// or error handling moves at least one of them. The hourly digest was
// re-pinned since, when MeasureHourlyProfile moved onto the sampling grid:
// its running-sum clock issued a 73rd probe per prefix here, an instant
// before 00:30 of the next day, and let samples drift across hour boundaries
// (TestHourlyProfileHasNoStrayProbe). The resilient digest was re-taken,
// from the same code, over the resilient discovery alone when the resilient
// hit-rate sweep was deleted. The other three are the parent's. The
// multi-day digest was taken from the commit before discovery swept several
// days in one pass, over three single-day sweeps one after the other.
const (
	wantDiscoveryDigest = "b57bb234a844830a53fd94a8f99a18b4698da63f7c10a568c84e8d1efcbc1a33"
	wantDaysDigest      = "7bc8973870e94e2a80d049081431fb6841af8b5afa2c5fced7e47ce785d63a2a"
	wantHitRatesDigest  = "078ec3a4da13531a11129b2739b957a68afd0e00a5d02376189f1c01626a216f"
	wantHourlyDigest    = "6d5d4fc53d76a50ff7eec5c98ab545728d7d43acc1c3a6dbe90daf7d45f4471b"
	wantLossyDigest     = "4264cb7aa89ef24cc6eb7c02726af0a29a734b8c8b5aed04b1fa9bb2a610955c"
	wantResilientDigest = "c55233c0606042ac2571698675c83a37e0b544fb5d1c36499618bc0bb9bfb583"
)

func digestDiscovery(h hash.Hash, d *Discovery) {
	ases := make([]topology.ASN, 0, len(d.FoundASes))
	for a := range d.FoundASes {
		ases = append(ases, a)
	}
	sort.Slice(ases, func(i, j int) bool { return ases[i] < ases[j] })
	pops := make([]int, 0, len(d.ByPoP))
	for p := range d.ByPoP {
		pops = append(pops, p)
	}
	sort.Ints(pops)
	fmt.Fprintf(h, "discovery probes=%d failed=%d found=%v ases=%v\n", d.Probes, d.Failed, d.Found, ases)
	for _, p := range pops {
		fmt.Fprintf(h, "pop %d=%d\n", p, d.ByPoP[p])
	}
}

func digestHitRates(h hash.Hash, hr *HitRates) {
	prefixes := make([]topology.PrefixID, 0, len(hr.ByPrefix))
	for p := range hr.ByPrefix {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i] < prefixes[j] })
	ases := make([]topology.ASN, 0, len(hr.ByAS))
	for a := range hr.ByAS {
		ases = append(ases, a)
	}
	sort.Slice(ases, func(i, j int) bool { return ases[i] < ases[j] })
	fmt.Fprintf(h, "hitrates per=%d failed=%d\n", hr.ProbesPerPrefix, hr.Failed)
	for _, p := range prefixes {
		fmt.Fprintf(h, "%d=%016x\n", p, math.Float64bits(hr.ByPrefix[p]))
	}
	for _, a := range ases {
		fmt.Fprintf(h, "as %d=%016x\n", a, math.Float64bits(hr.ByAS[a]))
	}
}

func digestStats(h hash.Hash, st *SweepStats) {
	fmt.Fprintf(h, "stats probes=%d retries=%d giveups=%d skips=%d opens=%d waits=%d\n",
		st.Probes, st.Retries, st.GiveUps, st.Skips, st.BreakerOpens, st.PacerWaits)
	targets := make([]topology.PrefixID, 0, len(st.Outcome))
	for p := range st.Outcome {
		targets = append(targets, p)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	for _, p := range targets {
		fmt.Fprintf(h, "%d=%v/%d\n", p, st.Outcome[p], st.Attempts[p])
	}
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// TestCampaignDigestsMatchParent pins every sweep's output for a fixed seed
// to the bytes the unsplit probe path produced.
func TestCampaignDigestsMatchParent(t *testing.T) {
	w := world.Build(world.Tiny(77))
	domains := w.Cat.ECSDomains()
	prefixes := w.Top.AllPrefixes()
	mid := domains[len(domains)/2]
	pb := &Prober{PR: w.PR, Domains: domains[:6], Source: 0x5eed}

	check := func(name, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s digest = %s, want %s", name, got, want)
		}
	}

	d, err := pb.DiscoverPrefixes(w.Top, prefixes, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	digestDiscovery(h, d)
	check("discovery", sum(h), wantDiscoveryDigest)
	if len(d.Found) == 0 || len(d.Found) == len(prefixes) {
		t.Errorf("discovery found %d of %d prefixes: digest is vacuous", len(d.Found), len(prefixes))
	}

	// The same sweep on three consecutive days, in one pass.
	days, err := pb.DiscoverDays(w.Top, prefixes, []simtime.Time{3, 27, 51}, 4)
	if err != nil {
		t.Fatal(err)
	}
	h = sha256.New()
	for _, d := range days {
		digestDiscovery(h, d)
	}
	check("multi-day discovery", sum(h), wantDaysDigest)

	hr, err := pb.MeasureHitRates(w.Top, prefixes, mid, 0, 15*simtime.Minute)
	if err != nil {
		t.Fatal(err)
	}
	h = sha256.New()
	digestHitRates(h, hr)
	check("hitrates", sum(h), wantHitRatesDigest)

	hp, err := pb.MeasureHourlyProfile(w.Top, prefixes[:300], domains[0], 0.5, 20*simtime.Minute)
	if err != nil {
		t.Fatal(err)
	}
	h = sha256.New()
	fmt.Fprintf(h, "hourly %v %v %d\n", hp.Hits, hp.Probes, hp.Failed)
	check("hourly", sum(h), wantHourlyDigest)

	// Under faults the naive sweeps lose probes and the resilient ones
	// retry them: fault keys, attempts and sources all reach the digest.
	w.PR.SetFaultPlan(faults.NewPlan(faults.Lossy(), 11))
	defer w.PR.SetFaultPlan(nil)

	d, err = pb.DiscoverPrefixes(w.Top, prefixes, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	hr, err = pb.MeasureHitRates(w.Top, prefixes[:400], mid, 0, simtime.Hour)
	if err != nil {
		t.Fatal(err)
	}
	h = sha256.New()
	digestDiscovery(h, d)
	digestHitRates(h, hr)
	check("lossy naive", sum(h), wantLossyDigest)
	if d.Failed == 0 || hr.Failed == 0 {
		t.Errorf("lossy plan injected nothing (discovery failed %d, hit rates failed %d): digest is vacuous", d.Failed, hr.Failed)
	}

	rp := &ResilientProber{
		PR: w.PR, Domains: domains[:6],
		Retry: resilience.Retryer{Budget: 4, Backoff: resilience.Backoff{
			Base: 5 * simtime.Minute, Factor: 3, Cap: 2 * simtime.Hour, Jitter: 0.5, Seed: 5,
		}},
		Breaker: resilience.BreakerConfig{FailThreshold: 5, Cooldown: 10 * simtime.Minute},
		QPS:     50, Shards: 8, BaseSource: 0x7000,
	}
	rd, st, err := rp.DiscoverPrefixes(w.Top, prefixes, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	h = sha256.New()
	digestDiscovery(h, rd)
	digestStats(h, st)
	check("lossy resilient", sum(h), wantResilientDigest)
	if st.Retries == 0 {
		t.Error("resilient sweep never retried: digest does not cover attempts")
	}
}
