package cacheprobe

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"itmap/internal/obs"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/world"
)

// sweepRun is everything one pair of sweeps leaves behind: the results, the
// ledgers, and what reached the metrics registry and the tracer.
type sweepRun struct {
	d          *Discovery
	hr         *HitRates
	st         *SweepStats
	exposition string
	traces     string
	answered   uint64 // itm_dns_probes_total
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
	r.answered = answeredLookups(set)
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
	if !reflect.DeepEqual(got.st, want.st) {
		t.Errorf("%s: sweep ledgers differ", name)
	}
	if got.exposition != want.exposition {
		t.Errorf("%s: stable exposition differs\ngot:\n%s\nwant:\n%s", name, got.exposition, want.exposition)
	}
	if got.traces != want.traces {
		t.Errorf("%s: exported traces differ", name)
	}
}

// TestResilientSweepWithoutTargets: no target, no shard — empty results, an
// empty ledger and no shard span, as the model has it.
func TestResilientSweepWithoutTargets(t *testing.T) {
	w := world.Build(world.Tiny(9))
	rp := hostileProber(w)
	got := observed(t, func(r *sweepRun) (err error) {
		r.d, r.st, err = rp.DiscoverPrefixes(w.Top, nil, 0, 2)
		return err
	})
	wantD, wantST := (&model{w: w}).resilient(rp, nil, 0, 2)
	if !reflect.DeepEqual(got.d, wantD) || !reflect.DeepEqual(got.st, wantST) {
		t.Errorf("no targets: got %+v and %+v", got.d, got.st)
	}
	if strings.Contains(got.traces, `"shard"`) {
		t.Errorf("a sweep without targets traced a shard:\n%s", got.traces)
	}
}

// TestSweepShardsReturnsTheSerialError: when shards fail, the error is the
// first failed shard's — the one a serial walk over the targets stops at —
// whatever order the shards finished in, and nothing is folded; without a
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
			for _, cpus := range []int{1, 4} {
				var folded []int
				prev := runtime.GOMAXPROCS(cpus)
				err := sweepShards(n, total, func(s *[]int) { folded = append(folded, *s...) },
					func(_, lo, hi int) (*[]int, error) { return serial(tc.bad, lo, hi) })
				runtime.GOMAXPROCS(prev)
				switch {
				case want == nil && err != nil, want != nil && (err == nil || err.Error() != want.Error()):
					t.Errorf("%s, %d shards, GOMAXPROCS %d: err = %v, the serial sweep's is %v", tc.name, n, cpus, err, want)
				case want != nil && len(folded) != 0:
					t.Errorf("%s, %d shards: %d targets folded beside an error", tc.name, n, len(folded))
				case want == nil:
					all, _ := serial(nil, 0, total)
					if !reflect.DeepEqual(folded, *all) {
						t.Errorf("%s, %d shards, GOMAXPROCS %d: folded %d targets, out of order or incomplete", tc.name, n, cpus, len(folded))
					}
				}
			}
		}
	}
	sentinel := errors.New("resolver gone")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	err := sweepShards(4, total, func(*Discovery) {}, func(shard, _, _ int) (*Discovery, error) {
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
