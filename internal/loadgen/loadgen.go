// Package loadgen replays a seeded, deterministic query mix against the
// map store's HTTP API and keeps one ledger: a counter set (requests by
// route, statuses, cache outcomes, body bytes) that is a pure function of
// (store content, seed, request count) — byte-identical across runs and
// worker counts. Wall-clock performance is measured by benchmark/, not here.
//
// Determinism across worker counts comes from key-affinity sharding: the
// plan is generated once from the seed, then every request for a given URL
// is routed to the worker that owns hash(URL). Each URL's request sequence
// is therefore totally ordered no matter how many workers run, so the
// per-URL conditional-request state machine (first visit fetches, later
// visits revalidate with If-None-Match) observes the same outcomes, and
// order-independent counter sums make worker interleaving invisible.
package loadgen

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"

	"itmap/internal/obs"
	"itmap/internal/order"
	"itmap/internal/randx"
)

// Doer issues one HTTP request (an *http.Client, or an in-process handler
// bridge). Implementations must be safe for concurrent use.
type Doer interface {
	Do(*http.Request) (*http.Response, error)
}

// The replay's fixed shape.
const (
	// zipfAlpha is the zipf exponent for AS popularity: a few hot ASes
	// absorb most /v1/as traffic, like real consumers would.
	zipfAlpha = 1.1
	// asPool caps how many top-ranked ASes (mesh mix: worst pairs) the
	// zipf draws from, clamped to the store's ranking.
	asPool = 64
	// revalidateProb is the probability a revisit to an already-seen URL
	// carries If-None-Match; the rest re-fetch the body, so the replay
	// exercises both the 304 path and the warm cache path.
	revalidateProb = 0.8
)

// Config shapes one replay.
type Config struct {
	// Base is the URL prefix requests are issued against (e.g.
	// "http://localhost:8411"). May be empty for in-process Doers.
	Base string
	// Seed drives the whole plan; same seed, same plan, same counters.
	Seed int64
	// Requests is the total number of requests to replay.
	Requests int
	// Workers is the closed-loop concurrency (default 1).
	Workers int
	// Mix selects the request profile: "map" (default) replays the
	// consumer mix over the map routes; "mesh" replays a user↔user mix
	// over /v1/path, /v1/latency, and /v1/latency/top, drawing AS pairs
	// zipf-weighted from the store's worst-latency ranking.
	Mix string
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Mix == "" {
		c.Mix = "map"
	}
}

// Counters is the deterministic ledger. All maps are keyed by small
// bounded sets (route patterns, status codes, X-Cache values), and
// marshaling sorts map keys, so the JSON is byte-identical across runs.
type Counters struct {
	// Requests counts issued requests by route pattern.
	Requests map[string]uint64 `json:"requests"`
	// Status counts responses by status code.
	Status map[string]uint64 `json:"status"`
	// Results counts 200 responses by the server's X-Cache verdict
	// (hit, miss, bypass, store).
	Results map[string]uint64 `json:"results"`
	// Traced counts requests issued with a minted traceparent header.
	Traced uint64 `json:"traced"`
	// NotModified counts 304 revalidations (no body transferred).
	NotModified uint64 `json:"not_modified"`
	// BodyBytes sums the body bytes of full responses.
	BodyBytes uint64 `json:"body_bytes"`
	// ETagChanges counts full responses whose ETag differed from the one
	// previously seen for the same URL (zero against a static store).
	ETagChanges uint64 `json:"etag_changes"`
}

func newCounters() *Counters {
	return &Counters{
		Requests: map[string]uint64{},
		Status:   map[string]uint64{},
		Results:  map[string]uint64{},
	}
}

func (c *Counters) merge(o *Counters) {
	for _, k := range order.Keys(o.Requests) {
		c.Requests[k] += o.Requests[k]
	}
	for _, k := range order.Keys(o.Status) {
		c.Status[k] += o.Status[k]
	}
	for _, k := range order.Keys(o.Results) {
		c.Results[k] += o.Results[k]
	}
	c.Traced += o.Traced
	c.NotModified += o.NotModified
	c.BodyBytes += o.BodyBytes
	c.ETagChanges += o.ETagChanges
}

// Total is the number of requests replayed.
func (c *Counters) Total() uint64 {
	var n uint64
	for _, k := range order.Keys(c.Requests) {
		n += c.Requests[k]
	}
	return n
}

// HitRatio is the fraction of requests answered without encoding a body:
// warm cache hits, zero-copy binary serves, and 304 revalidations.
func (c *Counters) HitRatio() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	return float64(c.Results["hit"]+c.Results["store"]+c.NotModified) / float64(total)
}

// Flat returns the counters as one flat name→value map, the shape
// itm-bench folds into BENCH_serve.json.
func (c *Counters) Flat() map[string]float64 {
	out := map[string]float64{
		"traced":       float64(c.Traced),
		"not_modified": float64(c.NotModified),
		"body_bytes":   float64(c.BodyBytes),
		"etag_changes": float64(c.ETagChanges),
	}
	for _, k := range order.Keys(c.Requests) {
		out["requests{route="+k+"}"] = float64(c.Requests[k])
	}
	for _, k := range order.Keys(c.Status) {
		out["status{code="+k+"}"] = float64(c.Status[k])
	}
	for _, k := range order.Keys(c.Results) {
		out["results{x_cache="+k+"}"] = float64(c.Results[k])
	}
	return out
}

// MarshalSorted renders the counters as indented JSON (map keys sorted by
// encoding/json), the byte-identity surface the smoke test diffs.
func (c *Counters) MarshalSorted() ([]byte, error) {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// request is one planned probe: a URL, whether a revisit should revalidate
// (send If-None-Match) instead of re-fetching the body, and the W3C
// traceparent the request propagates.
type request struct {
	url         string
	route       string
	revalidate  bool
	traceparent string
}

// tagTrace namespaces the trace-ID hash stream ("trace" in ASCII), keeping
// it disjoint from every other consumer of the seed.
const tagTrace = 0x7472616365

// mintTraceparent derives request i's traceparent from the plan seed: a
// 128-bit trace ID and 64-bit parent span ID via the identity hash. Same
// seed, same request index → same header, so the server-side trace corpus
// is byte-identical across runs and worker counts.
func mintTraceparent(seed int64, i int) string {
	return obs.FormatTraceparent(
		randx.Hash64(uint64(seed), tagTrace, uint64(i), 0),
		randx.Hash64(uint64(seed), tagTrace, uint64(i), 1),
		randx.Hash64(uint64(seed), tagTrace, uint64(i), 2),
	)
}

// storeShape is what the plan generator needs to know about the target:
// how many epochs exist, which ASes are worth querying, and — for the
// mesh mix — which AS pairs the mesh actually measured.
type storeShape struct {
	Epochs int
	ASes   []uint32
	Pairs  [][2]uint32
}

// discover bootstraps the store shape from the API itself: the epoch
// listing for the epoch count, the latest top-K ranking for the AS pool,
// and (mesh mix only) the worst-latency ranking for the pair pool.
func discover(d Doer, base, mix string) (storeShape, error) {
	var sh storeShape
	var listing struct {
		Epochs []struct {
			ID int `json:"id"`
		} `json:"epochs"`
	}
	if err := getJSON(d, base+"/v1/epochs", &listing); err != nil {
		return sh, err
	}
	sh.Epochs = len(listing.Epochs)
	if sh.Epochs == 0 {
		return sh, fmt.Errorf("loadgen: store has no epochs")
	}
	var top struct {
		Top []struct {
			ASN uint32 `json:"asn"`
		} `json:"top"`
	}
	if err := getJSON(d, base+"/v1/top?k="+strconv.Itoa(asPool), &top); err != nil {
		return sh, err
	}
	for _, r := range top.Top {
		sh.ASes = append(sh.ASes, r.ASN)
	}
	if len(sh.ASes) == 0 {
		return sh, fmt.Errorf("loadgen: store ranks no ASes")
	}
	if mix == "mesh" {
		var worst struct {
			Top []struct {
				A uint32 `json:"a"`
				B uint32 `json:"b"`
			} `json:"top"`
		}
		if err := getJSON(d, base+"/v1/latency/top?k="+strconv.Itoa(asPool), &worst); err != nil {
			return sh, err
		}
		for _, r := range worst.Top {
			sh.Pairs = append(sh.Pairs, [2]uint32{r.A, r.B})
		}
		if len(sh.Pairs) == 0 {
			return sh, fmt.Errorf("loadgen: store ranks no mesh pairs (was it built with a mesh?)")
		}
	}
	return sh, nil
}

func getJSON(d Doer, url string, v any) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := d.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// plan generates the full deterministic request sequence for the
// configured mix, every request carrying a seeded traceparent.
func plan(cfg Config, sh storeShape) []request {
	var reqs []request
	if cfg.Mix == "mesh" {
		reqs = planMesh(cfg, sh)
	} else {
		reqs = planMap(cfg, sh)
	}
	for i := range reqs {
		reqs[i].traceparent = mintTraceparent(cfg.Seed, i)
	}
	return reqs
}

// planMap is the consumer profile the paper's map targets: rankings and
// per-AS views dominate, full map fetches (some binary) and diffs fill in.
func planMap(cfg Config, sh storeShape) []request {
	src := randx.New(cfg.Seed)
	zipf := randx.NewZipf(len(sh.ASes), zipfAlpha)
	topKs := []int{10, 10, 10, 5, 20}
	reqs := make([]request, 0, cfg.Requests)
	for len(reqs) < cfg.Requests {
		var r request
		switch roll := src.Float64(); {
		case roll < 0.35:
			r.route = "/v1/top"
			r.url = "/v1/top?k=" + strconv.Itoa(topKs[src.Intn(len(topKs))])
		case roll < 0.65:
			r.route = "/v1/as/{asn}"
			asn := sh.ASes[zipf.Sample(src)-1]
			r.url = "/v1/as/" + strconv.FormatUint(uint64(asn), 10)
		case roll < 0.85:
			r.route = "/v1/map/{epoch}"
			r.url = "/v1/map/" + strconv.Itoa(src.Intn(sh.Epochs))
			if src.Bool(0.25) {
				r.url += "?format=binary"
			}
		default:
			if sh.Epochs < 2 {
				r.route = "/v1/top"
				r.url = "/v1/top?k=" + strconv.Itoa(topKs[src.Intn(len(topKs))])
				break
			}
			r.route = "/v1/diff/{a}/{b}"
			a := src.Intn(sh.Epochs - 1)
			r.url = "/v1/diff/" + strconv.Itoa(a) + "/" + strconv.Itoa(a+1)
		}
		r.revalidate = src.Bool(revalidateProb)
		reqs = append(reqs, r)
	}
	return reqs
}

// planMesh is the user↔user profile: path lookups and latency summaries
// over a zipf-skewed pair population (hot pairs get rechecked, like a
// dashboard polling its worst links), with worst-pair rankings filling in.
// Pairs are queried in both argument orders so the replay exercises the
// server's canonicalization.
func planMesh(cfg Config, sh storeShape) []request {
	src := randx.New(cfg.Seed)
	zipf := randx.NewZipf(len(sh.Pairs), zipfAlpha)
	topKs := []int{10, 10, 5, 20}
	reqs := make([]request, 0, cfg.Requests)
	for len(reqs) < cfg.Requests {
		var r request
		roll := src.Float64()
		if roll < 0.90 {
			p := sh.Pairs[zipf.Sample(src)-1]
			a, b := p[0], p[1]
			if src.Bool(0.5) {
				a, b = b, a
			}
			suffix := strconv.FormatUint(uint64(a), 10) + "/" + strconv.FormatUint(uint64(b), 10)
			if roll < 0.45 {
				r.route = "/v1/path/{a}/{b}"
				r.url = "/v1/path/" + suffix
			} else {
				r.route = "/v1/latency/{a}/{b}"
				r.url = "/v1/latency/" + suffix
			}
		} else {
			r.route = "/v1/latency/top"
			r.url = "/v1/latency/top?k=" + strconv.Itoa(topKs[src.Intn(len(topKs))])
		}
		r.revalidate = src.Bool(revalidateProb)
		reqs = append(reqs, r)
	}
	return reqs
}

// shardOf routes a URL to its owning worker: all requests for one URL run
// in one worker, in plan order.
func shardOf(url string, workers int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(url))
	return int(h.Sum32() % uint32(workers))
}

// Run replays the configured mix and returns its counters. Any transport
// error aborts the replay.
func Run(cfg Config, d Doer) (*Counters, error) {
	cfg.fill()
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("loadgen: Requests must be positive")
	}
	if cfg.Mix != "map" && cfg.Mix != "mesh" {
		return nil, fmt.Errorf("loadgen: unknown mix %q", cfg.Mix)
	}
	sh, err := discover(d, cfg.Base, cfg.Mix)
	if err != nil {
		return nil, err
	}
	reqs := plan(cfg, sh)

	shards := make([][]request, cfg.Workers)
	for _, r := range reqs {
		w := shardOf(r.url, cfg.Workers)
		shards[w] = append(shards[w], r)
	}

	counters := make([]*Counters, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for w := range shards {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			counters[w], errs[w] = runWorker(cfg.Base, d, shards[w])
		}(w)
	}
	wg.Wait()

	total := newCounters()
	for w := range shards {
		if errs[w] != nil {
			return nil, errs[w]
		}
		total.merge(counters[w])
	}
	return total, nil
}

// runWorker drives one shard's closed loop, tracking per-URL ETags so
// revisits can revalidate.
func runWorker(base string, d Doer, reqs []request) (*Counters, error) {
	c := newCounters()
	etags := map[string]string{}
	for _, r := range reqs {
		req, err := http.NewRequest(http.MethodGet, base+r.url, nil)
		if err != nil {
			return nil, err
		}
		seen := etags[r.url]
		if r.revalidate && seen != "" {
			req.Header.Set("If-None-Match", seen)
		}
		if r.traceparent != "" {
			req.Header.Set("traceparent", r.traceparent)
			c.Traced++
		}
		resp, err := d.Do(req)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			return nil, err
		}

		c.Requests[r.route]++
		c.Status[strconv.Itoa(resp.StatusCode)]++
		switch resp.StatusCode {
		case http.StatusOK:
			c.BodyBytes += uint64(len(body))
			if x := resp.Header.Get("X-Cache"); x != "" {
				c.Results[x]++
			}
			if tag := resp.Header.Get("ETag"); tag != "" {
				if seen != "" && tag != seen {
					c.ETagChanges++
				}
				etags[r.url] = tag
			}
		case http.StatusNotModified:
			c.NotModified++
		default:
			return nil, fmt.Errorf("loadgen: GET %s: status %d: %s", r.url, resp.StatusCode, body)
		}
	}
	return c, nil
}
