package cacheprobe

import (
	"runtime"
	"testing"

	"itmap/internal/simtime"
	"itmap/internal/world"
)

// TestParallelSmallInputFallsBack: more CPUs than targets cut one shard per
// target, and every target is still probed.
func TestParallelSmallInputFallsBack(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	w := world.Build(world.Tiny(33))
	pb := &Prober{PR: w.PR, Domains: w.Cat.ECSDomains()[:2]}
	few := w.Top.AllPrefixes()[:10]
	d, err := pb.DiscoverPrefixes(w.Top, few, 0, 2)
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
	w := world.Build(world.Tiny(34))
	prefixes := w.Top.AllPrefixes()
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
		prev := runtime.GOMAXPROCS(1)
		_, discErr := pb.DiscoverPrefixes(w.Top, prefixes, 0, 2)
		_, rateErr := pb.MeasureHitRates(w.Top, prefixes, domain, 0, simtime.Hour)
		runtime.GOMAXPROCS(4)
		d, err := pb.DiscoverPrefixes(w.Top, prefixes, 0, 2)
		if discErr == nil || err == nil || err.Error() != discErr.Error() || d != nil {
			t.Errorf("discovery of %s: 4 CPUs = (%v, %v), serial error %v", domain, d, err, discErr)
		}
		hr, err := pb.MeasureHitRates(w.Top, prefixes, domain, 0, simtime.Hour)
		if rateErr == nil || err == nil || err.Error() != rateErr.Error() || hr != nil {
			t.Errorf("hit rates of %s: 4 CPUs = (%v, %v), serial error %v", domain, hr, err, rateErr)
		}
		runtime.GOMAXPROCS(prev)
	}
}
