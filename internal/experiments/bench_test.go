package experiments

import (
	"testing"

	"itmap/internal/obs"
	"itmap/internal/world"
)

// BenchmarkEpochMaps is the map half of a 16-day boot: every campaign the
// days share and each day's own run before the timer, and each op builds
// every day's map again (buildMap), as a boot builds each of them once. Its
// allocations are a row of the deterministic ledger (make bench →
// BENCH_serve.json).
func BenchmarkEpochMaps(b *testing.B) {
	defer obs.Swap(obs.Swap(obs.NewSet()))
	w := world.Build(world.Tiny(1))
	envs := EpochEnvs(w, 16, 0)
	for _, e := range envs {
		e.Map()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range envs {
			e.buildMap()
		}
	}
}
