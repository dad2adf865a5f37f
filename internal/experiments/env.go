// Package experiments reproduces every table, figure, and in-text
// quantitative claim of the paper's evaluation: Table 1, Figures 1a, 1b
// and 2, the in-text claims E1–E9, and the paper's proposals and
// related-work baselines E10–E26, catalogued in DESIGN.md §3 and in
// Catalogue (catalogue.go). Each runner returns a structured Result
// carrying paper-reported values next to measured ones so EXPERIMENTS.md
// can be regenerated mechanically.
package experiments

import (
	"bytes"
	"sync"

	"itmap/internal/apnic"
	"itmap/internal/bgp"
	"itmap/internal/core"
	"itmap/internal/measure/cacheprobe"
	"itmap/internal/measure/rootlogs"
	"itmap/internal/measure/tlsscan"
	"itmap/internal/mrt"
	"itmap/internal/randx"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/traffic"
	"itmap/internal/world"
)

// The measurement campaigns' fixed shape.
const (
	// probeDomains caps the domain list for discovery sweeps.
	probeDomains = 8
	// discoveryRounds is how many times per day discovery re-probes.
	discoveryRounds = 4
	// hitRateInterval is the Figure 2 probing cadence.
	hitRateInterval = 15 * simtime.Minute
)

// campaign is what every day of a world's measurement shares: each
// artifact is computed when first asked for, once, and is immutable
// afterwards. The discovery sweep is the one that knows the days: it runs
// all of them at once and publishes no counters (Env.Discovery publishes
// its own day's).
type campaign struct {
	matrix    func() *traffic.Matrix
	apnic     func() *apnic.Estimates
	discovery func() []*cacheprobe.Discovery
	hitRates  func() *cacheprobe.HitRates
	hitFold   func() *core.HitRateFold
	scan      func() *tlsscan.Scan
	collector func() *bgp.Collector
	obsLinks  func() map[topology.LinkKey]bool
	observed  func() *topology.Topology
}

// Env is one day of a campaign over W: the artifacts the days share, plus
// the day's own discovery result, root-log crawl and map. Day d's discovery
// sweep starts at d·24h and its crawl covers day d. Every artifact is built
// when first asked for, once; an Env is safe for concurrent use.
type Env struct {
	W *world.World

	c     *campaign
	start simtime.Time

	discovery func() *cacheprobe.Discovery
	crawl     func() *rootlogs.Crawl
	trafMap   func() *core.TrafficMap
}

// NewEnvFromWorld wraps an existing world (e.g. one the caller also probes
// directly) in an experiment environment: day 0 of a one-day campaign.
func NewEnvFromWorld(w *world.World) *Env {
	return EpochEnvs(w, 1, 0)[0]
}

// newCampaign prepares the shared campaigns of days days over w. Only the
// experiments ask for the ground-truth matrix: no store holds it.
func newCampaign(w *world.World, days int) *campaign {
	c := &campaign{
		matrix: sync.OnceValue(w.Traffic.BuildMatrix),
		apnic: sync.OnceValue(func() *apnic.Estimates {
			return apnic.Estimate(w.Top, w.Users, apnic.DefaultConfig(), randx.New(w.Cfg.Seed+101))
		}),
		discovery: sync.OnceValue(func() []*cacheprobe.Discovery {
			domains := w.Cat.ECSDomains()
			if len(domains) > probeDomains {
				domains = domains[:probeDomains]
			}
			starts := make([]simtime.Time, days)
			for d := range starts {
				starts[d] = simtime.Time(d) * simtime.Day
			}
			pb := &cacheprobe.Prober{PR: w.PR, Domains: domains}
			found, err := pb.DiscoverDays(w.Top, w.Top.AllPrefixes(), starts, discoveryRounds)
			if err != nil {
				panic(err) // programming error: domains come from the catalog
			}
			return found
		}),
		hitRates: sync.OnceValue(func() *cacheprobe.HitRates {
			// A mid-popularity domain, because the very top domains are
			// nearly always cached for any large ISP. It does not reach
			// the paper's Figure 2 range (0-8%): at -scale small the
			// campaign measures a mean hit rate of 0.886, non-zero on
			// 33 384 of 37 424 prefixes. Calibrating the rate law against
			// Figure 2 is ROADMAP item 8's job, not this campaign's.
			pb := &cacheprobe.Prober{PR: w.PR}
			domains := w.Cat.ECSDomains()
			domain := domains[len(domains)/2]
			hr, err := pb.MeasureHitRates(w.Top, w.Top.AllPrefixes(),
				domain, 0, hitRateInterval)
			if err != nil {
				panic(err)
			}
			return hr
		}),
		scan: sync.OnceValue(func() *tlsscan.Scan { return tlsscan.ScanAll(w.Top, w.Cat, w.Top.AllPrefixes()) }),
		collector: sync.OnceValue(func() *bgp.Collector {
			return &bgp.Collector{Peers: bgp.DefaultCollectorPeers(w.Top, randx.New(w.Cfg.Seed+202))}
		}),
	}
	c.hitFold = sync.OnceValue(func() *core.HitRateFold { return core.FoldHitRates(w.Top, c.hitRates()) })
	c.obsLinks = sync.OnceValue(func() map[topology.LinkKey]bool {
		var buf bytes.Buffer
		if err := c.collector().ExportMRT(&buf, w.Paths, 0); err != nil {
			panic(err) // collector peers come from the topology
		}
		dump, err := mrt.Read(&buf)
		if err != nil {
			panic(err) // we just wrote these bytes
		}
		return bgp.ObservedLinksFromDump(dump)
	})
	c.observed = sync.OnceValue(func() *topology.Topology { return w.Top.SubgraphWithLinks(c.obsLinks()) })
	return c
}

// newEnv is day d of campaign c over w.
func newEnv(w *world.World, c *campaign, d int) *Env {
	e := &Env{W: w, c: c, start: simtime.Time(d) * simtime.Day}
	e.discovery = sync.OnceValue(func() *cacheprobe.Discovery {
		disc := c.discovery()[d]
		disc.Publish()
		return disc
	})
	e.crawl = sync.OnceValue(func() *rootlogs.Crawl { return rootlogs.CrawlDay(w.Roots, w.Traffic, d) })
	e.trafMap = sync.OnceValue(e.buildMap)
	return e
}

// Matrix returns the ground-truth traffic matrix.
func (e *Env) Matrix() *traffic.Matrix { return e.c.matrix() }

// APNIC returns the published user estimates.
func (e *Env) APNIC() *apnic.Estimates { return e.c.apnic() }

// Discovery returns the day's cache-probing discovery sweep. Its counters
// reach the process registry when it first returns, although the campaign
// swept every day at once.
func (e *Env) Discovery() *cacheprobe.Discovery { return e.discovery() }

// HitRates returns the Figure 2 hit-rate campaign.
func (e *Env) HitRates() *cacheprobe.HitRates { return e.c.hitRates() }

// Crawl returns the day's root-log crawl.
func (e *Env) Crawl() *rootlogs.Crawl { return e.crawl() }

// Scan returns the Internet-wide TLS scan.
func (e *Env) Scan() *tlsscan.Scan { return e.c.scan() }

// Collector returns the route-collector vantage.
func (e *Env) Collector() *bgp.Collector { return e.c.collector() }

// ObservedLinks returns the links visible to the collectors, derived the
// way a researcher derives them: the collector exports an MRT TABLE_DUMP_V2
// file, and the link set is parsed back out of those bytes.
func (e *Env) ObservedLinks() map[topology.LinkKey]bool { return e.c.obsLinks() }

// Observed returns the public-view topology.
func (e *Env) Observed() *topology.Topology { return e.c.observed() }

// Map returns the fully assembled traffic map.
func (e *Env) Map() *core.TrafficMap { return e.trafMap() }

// buildMap assembles the day's map from its discovery and crawl and the
// campaign's hit-rate fold and scan.
func (e *Env) buildMap() *core.TrafficMap {
	domains := e.W.Cat.ECSDomains()
	if len(domains) > 5 {
		domains = domains[:5]
	}
	return core.BuildMap(core.BuildInputs{
		Top:                 e.W.Top,
		Discovery:           e.Discovery(),
		HitRates:            e.c.hitFold(),
		RootCrawl:           e.Crawl(),
		PublicResolverOwner: e.W.PR.Owner,
		Scan:                e.Scan(),
		Auth:                e.W.Auth,
		PR:                  e.W.PR,
		MapDomains:          domains,
	})
}
