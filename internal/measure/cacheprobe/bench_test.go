package cacheprobe

import (
	"runtime"
	"testing"

	"itmap/internal/simtime"
	"itmap/internal/world"
)

// The campaign rows of the deterministic ledger (make bench → BENCH_serve.json):
// serial sweeps (one CPU), so allocations and probe counts do not depend on the
// machine's core count, over benchPrefixes prefixes of a tiny world — above
// that the result maps grow past the size where Go's map splitting depends
// on the per-process hash seed and B/op stops repeating.
const benchPrefixes = 12000

func BenchmarkMeasureHitRates(b *testing.B) {
	w := world.Build(world.Tiny(1))
	pb := &Prober{PR: w.PR}
	domains := w.Cat.ECSDomains()
	prefixes := w.Top.AllPrefixes()[:benchPrefixes]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ReportAllocs()
	b.ResetTimer()
	probes := 0
	for i := 0; i < b.N; i++ {
		hr, err := pb.MeasureHitRates(w.Top, prefixes, domains[len(domains)/2], 0, 15*simtime.Minute)
		if err != nil {
			b.Fatal(err)
		}
		probes = hr.ProbesPerPrefix * len(hr.ByPrefix)
	}
	b.ReportMetric(float64(probes), "probes/op")
}

func BenchmarkDiscoverPrefixes(b *testing.B) {
	w := world.Build(world.Tiny(1))
	pb := &Prober{PR: w.PR, Domains: w.Cat.ECSDomains()[:8]}
	prefixes := w.Top.AllPrefixes()[:benchPrefixes]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ReportAllocs()
	b.ResetTimer()
	probes := 0
	for i := 0; i < b.N; i++ {
		d, err := pb.DiscoverPrefixes(w.Top, prefixes, 0, 4)
		if err != nil {
			b.Fatal(err)
		}
		probes = d.Probes
	}
	b.ReportMetric(float64(probes), "probes/op")
}

// BenchmarkDiscoverDays is BenchmarkDiscoverPrefixes over three consecutive
// days in one pass, the epoch campaign's shape.
func BenchmarkDiscoverDays(b *testing.B) {
	w := world.Build(world.Tiny(1))
	pb := &Prober{PR: w.PR, Domains: w.Cat.ECSDomains()[:8]}
	prefixes := w.Top.AllPrefixes()[:benchPrefixes]
	starts := []simtime.Time{0, simtime.Day, 2 * simtime.Day}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ReportAllocs()
	b.ResetTimer()
	probes := 0
	for i := 0; i < b.N; i++ {
		days, err := pb.DiscoverDays(w.Top, prefixes, starts, 4)
		if err != nil {
			b.Fatal(err)
		}
		probes = 0
		for _, d := range days {
			probes += d.Probes
		}
	}
	b.ReportMetric(float64(probes), "probes/op")
}
