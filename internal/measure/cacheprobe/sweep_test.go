package cacheprobe

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"itmap/internal/faults"
	"itmap/internal/obs"
	"itmap/internal/resilience"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/world"
)

// sweepRun is everything one pair of sweeps leaves behind: the results, the
// ledgers, and what reached the metrics registry and the tracer.
type sweepRun struct {
	d          *Discovery
	hr         *HitRates
	dst, hst   *SweepStats
	exposition string
	traces     string
}

// observed runs sweeps in an observability world of its own.
func observed(t *testing.T, sweeps func(r *sweepRun) error) sweepRun {
	t.Helper()
	set := obs.NewSet()
	defer obs.Swap(obs.Swap(set))
	obs.ActivateTrace("sweep")
	var r sweepRun
	if err := sweeps(&r); err != nil {
		t.Fatal(err)
	}
	r.exposition = set.Reg.StableExposition()
	traces, err := set.Trc.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	r.traces = string(traces)
	return r
}

func (got sweepRun) mustEqual(t *testing.T, name string, want sweepRun) {
	t.Helper()
	if !reflect.DeepEqual(got.d, want.d) {
		t.Errorf("%s: Discovery differs (found %d vs %d, probes %d vs %d, failed %d vs %d)", name,
			len(got.d.Found), len(want.d.Found), got.d.Probes, want.d.Probes, got.d.Failed, want.d.Failed)
	}
	if !reflect.DeepEqual(got.hr, want.hr) {
		t.Errorf("%s: HitRates differ (failed %d vs %d)", name, got.hr.Failed, want.hr.Failed)
	}
	if !reflect.DeepEqual(got.dst, want.dst) || !reflect.DeepEqual(got.hst, want.hst) {
		t.Errorf("%s: sweep ledgers differ", name)
	}
	if got.exposition != want.exposition {
		t.Errorf("%s: stable exposition differs\ngot:\n%s\nwant:\n%s", name, got.exposition, want.exposition)
	}
	if got.traces != want.traces {
		t.Errorf("%s: exported traces differ", name)
	}
}

// TestSweepsMatchParentFanOuts drives the four sharded sweeps beside the
// parent's hand-written ones (sweepref_test.go) — naive on 1, 2, 4 and 7
// CPUs, resilient with 1, 2, 4 and 7 workers over 1 and 16 shards, fault-free
// and under the hostile profile — and requires the same Discovery, HitRates
// and SweepStats, the same metrics and the same span trees.
func TestSweepsMatchParentFanOuts(t *testing.T) {
	w := world.Build(world.Tiny(9))
	prefixes := w.Top.AllPrefixes()[:3000]
	domains := w.Cat.ECSDomains()
	mid := domains[len(domains)/2]
	pb := &Prober{PR: w.PR, Domains: domains[:6], Source: 0x5eed}

	for _, profile := range []faults.Profile{faults.None(), faults.Hostile()} {
		w.PR.SetFaultPlan(faults.NewPlan(profile, 3))
		for _, n := range []int{1, 2, 4, 7} {
			name := fmt.Sprintf("%s, naive on %d CPUs", profile.Name, n)
			prev := runtime.GOMAXPROCS(n)
			got := observed(t, func(r *sweepRun) (err error) {
				if r.d, err = pb.DiscoverPrefixesParallel(w.Top, prefixes, 3, 4); err != nil {
					return err
				}
				r.hr, err = pb.MeasureHitRatesParallel(w.Top, prefixes, mid, 0, 30*simtime.Minute)
				return err
			})
			want := observed(t, func(r *sweepRun) (err error) {
				if r.d, err = pb.refDiscoverPrefixesParallel(w.Top, prefixes, 3, 4); err != nil {
					return err
				}
				r.hr, err = pb.refMeasureHitRatesParallel(w.Top, prefixes, mid, 0, 30*simtime.Minute)
				return err
			})
			runtime.GOMAXPROCS(prev)
			got.mustEqual(t, name, want)
			if len(got.d.Found) == 0 || profile.Name == "hostile" && (got.d.Failed == 0 || got.hr.Failed == 0) {
				t.Errorf("%s: found %d prefixes, lost %d and %d probes: comparison is vacuous", name, len(got.d.Found), got.d.Failed, got.hr.Failed)
			}

			for _, shards := range []int{1, 16} {
				name := fmt.Sprintf("%s, resilient with %d workers over %d shards", profile.Name, n, shards)
				rp := &ResilientProber{
					PR: w.PR, Domains: domains[:4],
					Retry: resilience.Retryer{Budget: 4, Backoff: resilience.Backoff{
						Base: 5 * simtime.Minute, Factor: 3, Cap: 2 * simtime.Hour, Jitter: 0.5, Seed: 21,
					}},
					Breaker: resilience.BreakerConfig{FailThreshold: 5, Cooldown: 10 * simtime.Minute},
					QPS:     25, Shards: shards, BaseSource: 0x900d, Workers: n,
				}
				got := observed(t, func(r *sweepRun) (err error) {
					if r.d, r.dst, err = rp.DiscoverPrefixes(w.Top, prefixes, 3, 4); err != nil {
						return err
					}
					r.hr, r.hst, err = rp.MeasureHitRates(w.Top, prefixes[:400], mid, 0, 30*simtime.Minute)
					return err
				})
				if rp.Retry.Retryable != nil {
					t.Errorf("%s: the sweep left a retry classifier on its receiver", name)
				}
				want := observed(t, func(r *sweepRun) (err error) {
					if r.d, r.dst, err = rp.refDiscoverPrefixes(w.Top, prefixes, 3, 4); err != nil {
						return err
					}
					r.hr, r.hst, err = rp.refMeasureHitRates(w.Top, prefixes[:400], mid, 0, 30*simtime.Minute)
					return err
				})
				got.mustEqual(t, name, want)
				if profile.Name == "hostile" && (got.dst.Retries == 0 || got.hst.Retries == 0 || got.dst.GiveUps+got.dst.Skips == 0) {
					t.Errorf("%s: %d and %d retries, %d give-ups, %d skips: comparison is vacuous",
						name, got.dst.Retries, got.hst.Retries, got.dst.GiveUps, got.dst.Skips)
				}
			}
		}
	}
	w.PR.SetFaultPlan(nil)
}

// TestResilientSweepWithoutTargets: no target, no shard — empty results and
// an empty ledger, as the parent returned.
func TestResilientSweepWithoutTargets(t *testing.T) {
	w := world.Build(world.Tiny(9))
	rp := hostileProber(w, 2)
	domain := w.Cat.ECSDomains()[0]
	got := observed(t, func(r *sweepRun) (err error) {
		if r.d, r.dst, err = rp.DiscoverPrefixes(w.Top, nil, 0, 2); err != nil {
			return err
		}
		r.hr, r.hst, err = rp.MeasureHitRates(w.Top, nil, domain, 0, simtime.Hour)
		return err
	})
	want := observed(t, func(r *sweepRun) (err error) {
		if r.d, r.dst, err = rp.refDiscoverPrefixes(w.Top, nil, 0, 2); err != nil {
			return err
		}
		r.hr, r.hst, err = rp.refMeasureHitRates(w.Top, nil, domain, 0, simtime.Hour)
		return err
	})
	got.mustEqual(t, "no targets", want)
}

// TestSweepShardsReturnsTheSerialError: when shards fail, the error is the
// first failed shard's — the one a serial walk over the targets stops at —
// whatever order the workers finished in, and nothing is folded; without a
// failure every non-empty shard is folded once, in shard order.
func TestSweepShardsReturnsTheSerialError(t *testing.T) {
	const total = 1000
	// The serial sweep: walk targets in order, stop at the first bad one.
	serial := func(bad map[int]bool, lo, hi int) (*[]int, error) {
		var seen []int
		for i := lo; i < hi; i++ {
			if bad[i] {
				return nil, fmt.Errorf("target %d", i)
			}
			seen = append(seen, i)
		}
		return &seen, nil
	}
	for _, tc := range []struct {
		name string
		bad  map[int]bool
	}{
		{"no failure", nil},
		{"one failure", map[int]bool{613: true}},
		{"failures in three shards", map[int]bool{990: true, 407: true, 408: true, 731: true}},
		{"first target", map[int]bool{0: true, 999: true}},
	} {
		_, want := serial(tc.bad, 0, total)
		for _, n := range []int{1, 3, 7, 16, 1500} {
			for _, workers := range []int{1, 4} {
				var folded []int
				err := sweepShards(n, workers, total, func(s *[]int) { folded = append(folded, *s...) },
					func(_, lo, hi int) (*[]int, error) { return serial(tc.bad, lo, hi) })
				switch {
				case want == nil && err != nil, want != nil && (err == nil || err.Error() != want.Error()):
					t.Errorf("%s, %d shards, %d workers: err = %v, the serial sweep's is %v", tc.name, n, workers, err, want)
				case want != nil && len(folded) != 0:
					t.Errorf("%s, %d shards: %d targets folded beside an error", tc.name, n, len(folded))
				case want == nil:
					all, _ := serial(nil, 0, total)
					if !reflect.DeepEqual(folded, *all) {
						t.Errorf("%s, %d shards, %d workers: folded %d targets, out of order or incomplete", tc.name, n, workers, len(folded))
					}
				}
			}
		}
	}
	sentinel := errors.New("resolver gone")
	err := sweepShards(4, 4, total, func(*Discovery) {}, func(shard, _, _ int) (*Discovery, error) {
		if shard >= 2 {
			return nil, fmt.Errorf("shard %d: %w", shard, sentinel)
		}
		return newDiscovery(0), nil
	})
	if !errors.Is(err, sentinel) || err.Error() != "shard 2: resolver gone" {
		t.Errorf("err = %v, want shard 2's, unwrapped to the sentinel", err)
	}
}

// TestMergesFoldDisjointCuts: merging the results of two cuts of a target
// list is the result over the whole list.
func TestMergesFoldDisjointCuts(t *testing.T) {
	w := world.Build(world.Tiny(9))
	pb := &Prober{PR: w.PR, Domains: w.Cat.ECSDomains()[:4]}
	prefixes := w.Top.AllPrefixes()[:1200]
	sweep := func(targets []topology.PrefixID) (*Discovery, *HitRates) {
		d, err := pb.DiscoverPrefixes(w.Top, targets, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := pb.MeasureHitRates(w.Top, targets, pb.Domains[0], 0, simtime.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return d, hr
	}
	whole, wholeHR := sweep(prefixes)
	d, hr := newDiscovery(0), newHitRates(0, 0)
	for _, cut := range [][]topology.PrefixID{prefixes[:500], prefixes[500:]} {
		cd, chr := sweep(cut)
		d.merge(cd)
		hr.merge(chr)
	}
	if !reflect.DeepEqual(d, whole) || !reflect.DeepEqual(hr, wholeHR) {
		t.Errorf("merged cuts differ from the whole sweep: found %d vs %d, %d vs %d rates", len(d.Found), len(whole.Found), len(hr.ByPrefix), len(wholeHR.ByPrefix))
	}
}
