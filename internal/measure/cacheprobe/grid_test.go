package cacheprobe

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"itmap/internal/dnssim"
	"itmap/internal/faults"
	"itmap/internal/obs"
	"itmap/internal/obs/history"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/world"
)

// TestSweepsIdenticalAcrossWorkers: sampling grids and their diurnal tables
// are per shard, so a sweep's HitRates, Discovery, ledger, stable
// exposition and span tree are the same serial and fanned out over 2 or 4
// CPUs, naive and resilient alike, under a lossy plan.
func TestSweepsIdenticalAcrossWorkers(t *testing.T) {
	w := world.Build(world.Tiny(9))
	w.PR.SetFaultPlan(faults.NewPlan(faults.Lossy(), 3))
	defer w.PR.SetFaultPlan(nil)
	prefixes := w.Top.AllPrefixes()[:3000]
	domains := w.Cat.ECSDomains()
	mid := domains[len(domains)/2]

	pb := &Prober{PR: w.PR, Domains: domains[:6], Source: 0x5eed}
	naive := func(cpus int) sweepRun {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cpus))
		return observed(t, func(r *sweepRun) (err error) {
			if r.d, err = pb.DiscoverPrefixes(w.Top, prefixes, 3, 4); err != nil {
				return err
			}
			r.hr, err = pb.MeasureHitRates(w.Top, prefixes, mid, 0, 30*simtime.Minute)
			return err
		})
	}
	serial := naive(1)
	if serial.d.Failed == 0 || serial.hr.Failed == 0 || len(serial.d.Found) == 0 {
		t.Fatalf("lossy sweeps lost %d and %d probes, found %d prefixes: comparison is vacuous",
			serial.d.Failed, serial.hr.Failed, len(serial.d.Found))
	}
	// Every probe the fault layer let through was answered, and every answer
	// reached the process counter although probes publish once per prefix.
	want := serial.d.Probes - serial.d.Failed + serial.hr.ProbesPerPrefix*len(serial.hr.ByPrefix) - serial.hr.Failed
	if serial.answered != uint64(want) {
		t.Errorf("itm_dns_probes_total = %d after sweeps that got %d answers", serial.answered, want)
	}
	resilient := func(cpus int) sweepRun {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cpus))
		return observed(t, func(r *sweepRun) (err error) {
			r.d, r.st, err = hostileProber(w).DiscoverPrefixes(w.Top, prefixes, 3, 4)
			return err
		})
	}
	one := resilient(1)
	if one.st.Retries == 0 {
		t.Fatal("resilient sweep never retried: comparison is vacuous")
	}
	for _, cpus := range []int{2, 4} {
		naive(cpus).mustEqual(t, fmt.Sprintf("naive on %d CPUs", cpus), serial)
		resilient(cpus).mustEqual(t, fmt.Sprintf("resilient on %d CPUs", cpus), one)
	}
}

// answeredLookups reads itm_dns_probes_total from a metrics set.
func answeredLookups(set *obs.Set) uint64 {
	for _, kv := range history.Flatten(set.Reg) {
		if kv.Key == "itm_dns_probes_total" {
			return uint64(kv.Value)
		}
	}
	return 0
}

// hourlyByAccumulation is MeasureHourlyProfile's loop as it stood before
// sampling grids: the instant is a running sum of the interval.
func hourlyByAccumulation(pb *Prober, prefixes []topology.PrefixID, domain string, start, interval simtime.Time) (*HourlyProfile, error) {
	hp := &HourlyProfile{}
	for _, p := range prefixes {
		pop := pb.PR.HomePoP(p)
		if pop == nil {
			continue
		}
		probe := pb.PR.Prepare(pop.ID, domain, p)
		for at := start; at < start+24; at += interval {
			hit, err := probe.At(at, dnssim.ProbeOpts{Source: pb.Source})
			if err != nil {
				return nil, err
			}
			h := int(at.UTCHour())
			hp.Probes[h]++
			if hit {
				hp.Hits[h]++
			}
		}
	}
	return hp, nil
}

// TestHourlyProfileHasNoStrayProbe: the old running sum of a non-dyadic
// interval could stop just short of the day's end and issue one probe too
// many, into the day's last hour. On the grid, sample r is at start +
// r·interval for exactly the r with r·interval < 24.
func TestHourlyProfileHasNoStrayProbe(t *testing.T) {
	w := world.Build(world.Tiny(12))
	pb := &Prober{PR: w.PR}
	domain := w.Cat.ECSDomains()[0]
	prefixes := w.Top.AllPrefixes()[:200]
	for _, long := range []simtime.Time{24, simtime.Time(math.Inf(1)), simtime.Time(math.NaN())} {
		if got := samplesInDay(long); got != 1 {
			t.Errorf("samplesInDay(%v) = %d, want 1", long, got)
		}
	}
	for _, c := range []struct {
		name            string
		start, interval simtime.Time
		perPrefix       int  // samples the grid takes
		stray           bool // the running sum took one more
	}{
		{"5 min from 0 (E13 day 0)", 0, 5 * simtime.Minute, 288, true},
		{"5 min from 24 (E13 day 1)", 24, 5 * simtime.Minute, 288, false},
		{"20 min from 0.5", 0.5, 20 * simtime.Minute, 72, true},
		{"12 min from 0", 0, 12 * simtime.Minute, 120, true},
		{"10 min from 24", 24, 10 * simtime.Minute, 144, true},
		{"15 min from 0", 0, 15 * simtime.Minute, 96, false},
		{"7 min from 0", 0, 7 * simtime.Minute, 206, false},
		{"25 h from 0", 0, 25, 1, false},
	} {
		if got := samplesInDay(c.interval); got != c.perPrefix {
			t.Errorf("%s: samplesInDay = %d, want %d", c.name, got, c.perPrefix)
		}
		set := obs.NewSet()
		prev := obs.Swap(set)
		hp, err := pb.MeasureHourlyProfile(w.Top, prefixes, domain, c.start, c.interval)
		obs.Swap(prev)
		if err != nil {
			t.Fatal(err)
		}
		old, err := hourlyByAccumulation(pb, prefixes, domain, c.start, c.interval)
		if err != nil {
			t.Fatal(err)
		}
		total, oldTotal := 0, 0
		for h := 0; h < 24; h++ {
			total += hp.Probes[h]
			oldTotal += old.Probes[h]
		}
		if got := answeredLookups(set); got != uint64(total) {
			t.Errorf("%s: itm_dns_probes_total = %d after %d fault-free probes", c.name, got, total)
		}
		if total != c.perPrefix*len(prefixes) {
			t.Errorf("%s: %d probes for %d prefixes, want %d each", c.name, total, len(prefixes), c.perPrefix)
		}
		stray := oldTotal - total
		if c.stray && stray != len(prefixes) || !c.stray && stray != 0 {
			t.Errorf("%s: the running sum issued %d probes more than the grid over %d prefixes (stray expected: %v)",
				c.name, stray, len(prefixes), c.stray)
		}
		// A cadence that divides the hour weights every hour alike. (The
		// running sum did not even without a stray probe: its on-the-hour
		// samples drifted to either side of the hour.)
		if perHour := float64(simtime.Hour / c.interval); perHour == float64(int(perHour)) && c.start == simtime.Time(int(c.start)) {
			for h := 0; h < 24; h++ {
				if hp.Probes[h] != int(perHour)*len(prefixes) {
					t.Errorf("%s: hour %d has %d probes, want %d", c.name, h, hp.Probes[h], int(perHour)*len(prefixes))
				}
			}
		}
	}
}
