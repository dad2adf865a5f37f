package cacheprobe

import (
	"runtime"
	"testing"

	"itmap/internal/simtime"
	"itmap/internal/world"
)

func TestParallelDiscoveryIdentical(t *testing.T) {
	w := world.Build(world.Tiny(31))
	pb := &Prober{PR: w.PR, Domains: w.Cat.ECSDomains()[:6]}
	prefixes := w.Top.AllPrefixes()
	serial, err := pb.DiscoverPrefixes(w.Top, prefixes, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := pb.DiscoverPrefixesParallel(w.Top, prefixes, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Found) != len(parallel.Found) || serial.Probes != parallel.Probes {
		t.Fatalf("parallel diverged: %d/%d found, %d/%d probes",
			len(parallel.Found), len(serial.Found), parallel.Probes, serial.Probes)
	}
	for p := range serial.Found {
		if !parallel.Found[p] {
			t.Fatalf("prefix %v lost in parallel sweep", p)
		}
	}
	for pop, c := range serial.ByPoP {
		if parallel.ByPoP[pop] != c {
			t.Fatalf("PoP %d count %d vs %d", pop, parallel.ByPoP[pop], c)
		}
	}
}

func TestParallelHitRatesIdentical(t *testing.T) {
	w := world.Build(world.Tiny(32))
	pb := &Prober{PR: w.PR}
	domain := w.Cat.ECSDomains()[0]
	prefixes := w.Top.AllPrefixes()
	serial, err := pb.MeasureHitRates(w.Top, prefixes, domain, 0, simtime.Hour)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := pb.MeasureHitRatesParallel(w.Top, prefixes, domain, 0, simtime.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.ByPrefix) != len(parallel.ByPrefix) {
		t.Fatalf("prefix counts differ: %d vs %d", len(parallel.ByPrefix), len(serial.ByPrefix))
	}
	for p, v := range serial.ByPrefix {
		if parallel.ByPrefix[p] != v {
			t.Fatalf("prefix %v rate %f vs %f", p, parallel.ByPrefix[p], v)
		}
	}
	for asn, v := range serial.ByAS {
		if parallel.ByAS[asn] != v {
			t.Fatalf("AS %d count %f vs %f", asn, parallel.ByAS[asn], v)
		}
	}
}

func TestParallelSmallInputFallsBack(t *testing.T) {
	w := world.Build(world.Tiny(33))
	pb := &Prober{PR: w.PR, Domains: w.Cat.ECSDomains()[:2]}
	few := w.Top.AllPrefixes()[:10]
	d, err := pb.DiscoverPrefixesParallel(w.Top, few, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Probes == 0 {
		t.Error("small input not probed")
	}
}

// TestParallelSurfacesShardErrors: a permanent error in any shard must reach
// the caller exactly as the serial sweep reports it, never a partial result
// with a nil error.
func TestParallelSurfacesShardErrors(t *testing.T) {
	// The fan-out only engages with at least two workers.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	w := world.Build(world.Tiny(34))
	prefixes := w.Top.AllPrefixes()
	if len(prefixes) < 256 {
		t.Fatalf("only %d prefixes: parallel sweeps would fall back to serial", len(prefixes))
	}
	nonECS := ""
	for _, s := range w.Cat.Services {
		if !s.ECS {
			nonECS = s.Domain
			break
		}
	}
	if nonECS == "" {
		t.Fatal("catalog has no non-ECS domain")
	}
	for _, domain := range []string{nonECS, "nxdomain.example"} {
		pb := &Prober{PR: w.PR, Domains: []string{domain}}
		_, serialErr := pb.DiscoverPrefixes(w.Top, prefixes, 0, 2)
		d, err := pb.DiscoverPrefixesParallel(w.Top, prefixes, 0, 2)
		if serialErr == nil || err == nil || err.Error() != serialErr.Error() || d != nil {
			t.Errorf("discovery of %s: parallel = (%v, %v), serial error %v", domain, d, err, serialErr)
		}
		_, serialErr = pb.MeasureHitRates(w.Top, prefixes, domain, 0, simtime.Hour)
		hr, err := pb.MeasureHitRatesParallel(w.Top, prefixes, domain, 0, simtime.Hour)
		if serialErr == nil || err == nil || err.Error() != serialErr.Error() || hr != nil {
			t.Errorf("hit rates of %s: parallel = (%v, %v), serial error %v", domain, hr, err, serialErr)
		}
	}
}
