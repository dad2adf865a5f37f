package itm

// Benchmark harness: one benchmark per paper artifact (Table 1, Figures
// 1a/1b/2, claims E1-E9 — see DESIGN.md's per-experiment index), plus
// substrate micro-benchmarks and the ablations DESIGN.md calls out.
// Campaign artifacts are cached in a shared session, so the per-artifact
// benchmarks measure the analysis cost; the campaign benchmarks measure the
// measurement sweeps themselves.

import (
	"runtime"
	"sync"
	"testing"

	"itmap/internal/bgp"
	"itmap/internal/measure/cacheprobe"
	"itmap/internal/measure/catchment"
	"itmap/internal/services"
	"itmap/internal/simtime"
	"itmap/internal/stats"
	"itmap/internal/topology"
	"itmap/internal/world"
)

var (
	benchOnce    sync.Once
	benchSession *Session
)

func sharedSession(b *testing.B) *Session {
	b.Helper()
	benchOnce.Do(func() {
		s := NewSession(NewInternet(SmallConfig(42)))
		// Pre-run the campaigns so per-artifact benches measure
		// analysis, not the (separately benchmarked) sweeps.
		s.Discovery()
		s.HitRates()
		s.Crawl()
		s.Scan()
		s.ObservedLinks()
		s.Map()
		s.Matrix()
		benchSession = s
	})
	return benchSession
}

func requirePass(b *testing.B, r *Result) {
	b.Helper()
	if !r.Pass() {
		b.Fatalf("%s failed during benchmark:\n%s", r.ID, FormatResults([]*Result{r}))
	}
}

// --- One benchmark per paper artifact --------------------------------------

func BenchmarkTable1Components(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunTable1())
	}
}

func BenchmarkFigure1aCacheProbePoPs(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunFigure1a())
	}
}

func BenchmarkFigure1bCountryCoverage(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunFigure1b())
	}
}

func BenchmarkFigure2HitRateVsSubscribers(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunFigure2())
	}
}

func BenchmarkE1TrafficConcentration(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE1())
	}
}

func BenchmarkE2WeightedPathLengths(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE2())
	}
}

func BenchmarkE3AnycastOptimality(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE3())
	}
}

func BenchmarkE4PathPrediction(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE4())
	}
}

func BenchmarkE5ClientDiscoveryRecall(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE5())
	}
}

func BenchmarkE6IPIDVelocity(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE6())
	}
}

func BenchmarkE7ECSAdoption(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE7())
	}
}

func BenchmarkE8PeeringRecommendation(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE8())
	}
}

func BenchmarkE9PublicDNSShare(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE9())
	}
}

func BenchmarkE10ResolverAssociation(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE10())
	}
}

func BenchmarkE11TrafficEstimationBaseline(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE11())
	}
}

func BenchmarkE12CacheEfficacy(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE12())
	}
}

func BenchmarkE13HourlyActivity(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE13())
	}
}

func BenchmarkE14ServerGeolocation(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE14())
	}
}

func BenchmarkE15MatrixCompletion(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE15())
	}
}

func BenchmarkE16DailyStability(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE16())
	}
}

func BenchmarkE17OutageReroutes(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE17())
	}
}

func BenchmarkE18OffNetGrowth(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE18())
	}
}

func BenchmarkE19TopLists(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE19())
	}
}

func BenchmarkE20VolumeCalibration(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE20())
	}
}

func BenchmarkE21AdoptionDebias(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE21())
	}
}

func BenchmarkE22CustomURLOptimality(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE22())
	}
}

func BenchmarkE23BotFiltering(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE23())
	}
}

func BenchmarkE24FaultResilience(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE24())
	}
}

func BenchmarkE25EpochStore(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE25())
	}
}

func BenchmarkE26MeshCoverage(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requirePass(b, s.RunE26())
	}
}

// --- Campaign and substrate benchmarks -------------------------------------

func BenchmarkWorldBuildSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		world.Build(world.Small(int64(i)))
	}
}

func BenchmarkGroundTruthMatrix(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.W.Traffic.BuildMatrix()
	}
}

// BenchmarkBuildMatrix measures the parallel shard-and-merge ground-truth
// build at SmallConfig; BenchmarkBuildMatrixSerial pins one worker so the
// parallel speedup and the per-op allocation budget are both visible in
// one -bench run.
func BenchmarkBuildMatrix(b *testing.B) {
	s := sharedSession(b)
	s.W.Traffic.BuildMatrix() // warm the assignment memo once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.W.Traffic.BuildMatrix()
	}
}

// BenchmarkBuildMatrixSerial is BenchmarkBuildMatrix on one CPU.
func BenchmarkBuildMatrixSerial(b *testing.B) {
	s := sharedSession(b)
	s.W.Traffic.BuildMatrix()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.W.Traffic.BuildMatrix()
	}
}

// BenchmarkComputeAll measures the full-origin BGP sweep (atomic-counter
// worker pool + pooled dense scratch) on the SmallConfig topology.
func BenchmarkComputeAll(b *testing.B) {
	s := sharedSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bgp.ComputeAll(s.W.Top)
	}
}

func BenchmarkCacheProbeDiscovery(b *testing.B) {
	s := sharedSession(b)
	pb := &cacheprobe.Prober{PR: s.W.PR, Domains: s.W.Cat.ECSDomains()[:8]}
	prefixes := s.W.Top.AllPrefixes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pb.DiscoverPrefixes(s.W.Top, prefixes, 0, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHitRateCampaign(b *testing.B) {
	s := sharedSession(b)
	pb := &cacheprobe.Prober{PR: s.W.PR}
	domains := s.W.Cat.ECSDomains()
	prefixes := s.W.Top.AllPrefixes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pb.MeasureHitRates(s.W.Top, prefixes, domains[len(domains)/2], 0, 15*simtime.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBGPAllPaths(b *testing.B) {
	top := topology.Generate(topology.TinyGenConfig(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bgp.ComputeAll(top)
	}
}

func BenchmarkBuildTrafficMap(b *testing.B) {
	s := sharedSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-assembles the map from cached campaign outputs.
		fresh := NewSession(s.W)
		fresh.Map()
	}
}

// --- Ablations (design decisions DESIGN.md stars) ---------------------------

// BenchmarkAblationNoOffNets disables off-net caches: the 2%-vs-73%
// weighting contrast (E2) must collapse, demonstrating that the contrast is
// carried by in-network serving, not an artifact of the harness.
func BenchmarkAblationNoOffNets(b *testing.B) {
	cfg := SmallConfig(42)
	cfg.Services.OffNetProb = 0
	inet := NewInternet(cfg)
	mx := inet.Traffic.BuildMatrix()
	topOwner := mx.TopOwners()[0].ASN
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var weighted stats.WeightedCDF
		var zeroHop float64
		for _, f := range mx.Flows {
			svc := inet.Cat.Services[f.Svc]
			if svc.Owner != topOwner || f.Hops < 0 {
				continue
			}
			weighted.Add(float64(f.Hops), f.Bytes/svc.BytesPerQuery)
			if f.Hops == 0 {
				zeroHop += f.Bytes
			}
		}
		if zeroHop > 0 {
			b.Fatal("off-nets disabled but zero-hop traffic remains")
		}
		if weighted.FracAtMost(0) > 0.01 {
			b.Fatalf("ablation failed: %.2f of traffic still served in-network", weighted.FracAtMost(0))
		}
	}
}

// BenchmarkAblationNoGiantPNIs removes hypergiant-eyeball private peering:
// collectors then see a larger share of the (remaining) giant links, and
// weighted path lengths stretch — the flattening is what hides the map.
func BenchmarkAblationNoGiantPNIs(b *testing.B) {
	cfg := SmallConfig(43)
	cfg.Topology.HypergiantEyeballPeering = 0
	inet := NewInternet(cfg)
	mx := inet.Traffic.BuildMatrix()
	topOwner := mx.TopOwners()[0].ASN
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var weighted stats.WeightedCDF
		for _, f := range mx.Flows {
			svc := inet.Cat.Services[f.Svc]
			if svc.Owner != topOwner || f.Hops < 0 {
				continue
			}
			weighted.Add(float64(f.Hops), f.Bytes/svc.BytesPerQuery)
		}
		oneHop := weighted.FracAtMost(1) - weighted.FracAtMost(0)
		if oneHop > 0.35 {
			b.Fatalf("ablation failed: %.2f of non-off-net traffic still one hop", oneHop)
		}
	}
}

// BenchmarkAblationAnycastEverywhere announces anycast from every on-net
// site instead of the hub sites: catchments become near-perfectly optimal,
// washing out the E3 route-vs-user gap.
func BenchmarkAblationAnycastEverywhere(b *testing.B) {
	inet := NewInternet(SmallConfig(44))
	var owner ASN
	for _, s := range inet.Cat.Services {
		if s.Kind == services.Anycast {
			owner = s.Owner
			break
		}
	}
	if owner == 0 {
		b.Skip("no anycast service")
	}
	d := inet.Cat.Deployments[owner]
	d.AnycastSites = d.OnNetSites() // the ablation
	clients := inet.Top.ASesOfType(topology.Eyeball)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := catchment.Measure(inet.Cat, inet.Paths, owner, clients)
		an := catchment.Analyze(m, inet.Cat, inet.Top, inet.Users)
		if an.UserOptimalFrac < 0.9 {
			b.Fatalf("dense anycast should be near-optimal, got %.2f", an.UserOptimalFrac)
		}
	}
}
