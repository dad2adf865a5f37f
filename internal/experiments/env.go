// Package experiments reproduces every table, figure, and in-text
// quantitative claim of the paper's evaluation: Table 1, Figures 1a, 1b
// and 2, plus the claims catalogued as E1–E9 in DESIGN.md. Each runner
// returns a structured Result carrying paper-reported values next to
// measured ones so EXPERIMENTS.md can be regenerated mechanically.
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

// Env shares the expensive artifacts (world, matrix, measurement campaigns)
// across experiment runners. Everything is built lazily and cached.
type Env struct {
	W *world.World

	mu sync.Mutex
	//itm:guardedby mu
	mx *traffic.Matrix
	//itm:guardedby mu
	est *apnic.Estimates
	//itm:guardedby mu
	discovery *cacheprobe.Discovery
	//itm:guardedby mu
	hitRates *cacheprobe.HitRates
	//itm:guardedby mu
	crawl *rootlogs.Crawl
	//itm:guardedby mu
	scan *tlsscan.Scan
	//itm:guardedby mu
	collector *bgp.Collector
	//itm:guardedby mu
	obsLinks map[topology.LinkKey]bool
	//itm:guardedby mu
	observed *topology.Topology
	//itm:guardedby mu
	trafMap *core.TrafficMap

	// DiscoveryStart is the simulated time the discovery sweep begins
	// (shift by 24h increments for day-over-day comparisons).
	DiscoveryStart simtime.Time
	// CrawlDayIndex selects which simulated day the root-log crawl
	// covers (shift together with DiscoveryStart for multi-epoch runs).
	CrawlDayIndex int
	// MatrixWorkers bounds the goroutines building the ground-truth
	// matrix (0 = one per CPU). The result is identical either way —
	// the shard-and-merge build is deterministic across worker counts —
	// so this only trades wall clock for CPU when experiments share a
	// machine.
	MatrixWorkers int
}

// NewEnvFromWorld wraps an existing world (e.g. one the caller also probes
// directly) in an experiment environment.
func NewEnvFromWorld(w *world.World) *Env {
	return &Env{W: w}
}

// Matrix returns the ground-truth traffic matrix.
func (e *Env) Matrix() *traffic.Matrix {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mx == nil {
		e.mx = e.W.Traffic.BuildMatrixWorkers(e.MatrixWorkers)
	}
	return e.mx
}

// APNIC returns the published user estimates.
func (e *Env) APNIC() *apnic.Estimates {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.est == nil {
		e.est = apnic.Estimate(e.W.Top, e.W.Users, apnic.DefaultConfig(), randx.New(e.W.Cfg.Seed+101))
	}
	return e.est
}

// Discovery returns the cache-probing discovery sweep.
func (e *Env) Discovery() *cacheprobe.Discovery {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.discovery == nil {
		domains := e.W.Cat.ECSDomains()
		if len(domains) > probeDomains {
			domains = domains[:probeDomains]
		}
		pb := &cacheprobe.Prober{PR: e.W.PR, Domains: domains}
		d, err := pb.DiscoverPrefixes(e.W.Top, e.W.Top.AllPrefixes(), e.DiscoveryStart, discoveryRounds)
		if err != nil {
			panic(err) // programming error: domains come from the catalog
		}
		e.discovery = d
	}
	return e.discovery
}

// HitRates returns the Figure 2 hit-rate campaign.
func (e *Env) HitRates() *cacheprobe.HitRates {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.hitRates == nil {
		pb := &cacheprobe.Prober{PR: e.W.PR}
		// A mid-popularity domain, because the very top domains are
		// nearly always cached for any large ISP. It does not reach the
		// paper's Figure 2 range (0-8%): at -scale small the campaign
		// measures a mean hit rate of 0.886, non-zero on 33 384 of
		// 37 424 prefixes (PR 20). Calibrating the rate law against
		// Figure 2 is ROADMAP item 4's job, not this method's.
		domains := e.W.Cat.ECSDomains()
		domain := domains[len(domains)/2]
		hr, err := pb.MeasureHitRates(e.W.Top, e.W.Top.AllPrefixes(),
			domain, 0, hitRateInterval)
		if err != nil {
			panic(err)
		}
		e.hitRates = hr
	}
	return e.hitRates
}

// Crawl returns the root-log crawl.
func (e *Env) Crawl() *rootlogs.Crawl {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crawl == nil {
		e.crawl = rootlogs.CrawlDay(e.W.Roots, e.W.Traffic, e.CrawlDayIndex)
	}
	return e.crawl
}

// Scan returns the Internet-wide TLS scan.
func (e *Env) Scan() *tlsscan.Scan {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.scan == nil {
		e.scan = tlsscan.ScanAll(e.W.Top, e.W.Cat, e.W.Top.AllPrefixes())
	}
	return e.scan
}

// Collector returns the route-collector vantage.
func (e *Env) Collector() *bgp.Collector {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.collector == nil {
		e.collector = &bgp.Collector{
			Peers: bgp.DefaultCollectorPeers(e.W.Top, randx.New(e.W.Cfg.Seed+202)),
		}
	}
	return e.collector
}

// ObservedLinks returns the links visible to the collectors, derived the
// way a researcher derives them: the collector exports an MRT TABLE_DUMP_V2
// file, and the link set is parsed back out of those bytes.
func (e *Env) ObservedLinks() map[topology.LinkKey]bool {
	col := e.Collector()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.obsLinks == nil {
		var buf bytes.Buffer
		if err := col.ExportMRT(&buf, e.W.Paths, 0); err != nil {
			panic(err) // collector peers come from the topology
		}
		dump, err := mrt.Read(&buf)
		if err != nil {
			panic(err) // we just wrote these bytes
		}
		e.obsLinks = bgp.ObservedLinksFromDump(dump)
	}
	return e.obsLinks
}

// Observed returns the public-view topology.
func (e *Env) Observed() *topology.Topology {
	links := e.ObservedLinks()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.observed == nil {
		e.observed = e.W.Top.SubgraphWithLinks(links)
	}
	return e.observed
}

// shareInvariants copies the time-invariant campaign artifacts (TLS scan,
// hit rates, collector view, observed topology) from base, computing them
// there first if needed. Later-day epoch environments call this instead of
// re-running Internet-wide sweeps; the artifacts are immutable once built,
// so sharing the pointers is safe.
func (e *Env) shareInvariants(base *Env) {
	scan := base.Scan()
	hr := base.HitRates()
	col := base.Collector()
	links := base.ObservedLinks()
	obs := base.Observed()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.scan = scan
	e.hitRates = hr
	e.collector = col
	e.obsLinks = links
	e.observed = obs
}

// Map returns the fully assembled traffic map.
func (e *Env) Map() *core.TrafficMap {
	disc := e.Discovery()
	hr := e.HitRates()
	crawl := e.Crawl()
	scan := e.Scan()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.trafMap == nil {
		domains := e.W.Cat.ECSDomains()
		if len(domains) > 5 {
			domains = domains[:5]
		}
		e.trafMap = core.BuildMap(core.BuildInputs{
			Top:                 e.W.Top,
			Discovery:           disc,
			HitRates:            hr,
			RootCrawl:           crawl,
			PublicResolverOwner: e.W.PR.Owner,
			Scan:                scan,
			Auth:                e.W.Auth,
			PR:                  e.W.PR,
			MapDomains:          domains,
		})
	}
	return e.trafMap
}
