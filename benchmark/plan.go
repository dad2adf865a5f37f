package main

import (
	"fmt"
	"math"
	"sort"
)

// rng is a splitmix64 stream. The request plans must be a pure function of
// the seed on every Go release, and the repo's lint reserves math/rand for
// its own seeded substrate, so the benchmark carries its own generator.
type rng struct{ s uint64 }

func newRNG(seed int64, stream int) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// zipf draws ranks 0..n-1 with P(k) proportional to (k+1)^-alpha.
type zipf struct{ cdf []float64 }

func newZipf(n int, alpha float64) zipf {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += math.Pow(float64(k+1), -alpha)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf}
}

func (z zipf) draw(r *rng) int {
	k := sort.SearchFloat64s(z.cdf, r.float())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// catalog is what discovery learned from the server: the keys the request
// plans draw from. The program under test only ever sees the URLs.
type catalog struct {
	epochs []int
	asns   []uint32
	pairs  [][2]uint32 // empty when the server carries no mesh sections
}

// request is one planned GET.
type request struct {
	route       string // route family, for mix accounting
	url         string // path and query
	revalidate  bool   // send If-None-Match when this URL's ETag is known
	traceparent string // W3C header value, or ""
	gzip        bool   // offer Accept-Encoding: gzip
}

const (
	zipfAlpha      = 1.1
	revalidateProb = 0.8
	tracedOneIn    = 8
)

var topKs = [...]int{5, 10, 20}

// hotPlan is the serve_hot stream: small bodies, skewed keys, mostly
// revalidations. Shares: 30 % top, 30 % as, 10 % diff, 15 % path,
// 10 % latency, 5 % latency/top.
type hotPlan struct {
	r     *rng
	cat   *catalog
	asZ   zipf
	pairZ zipf
}

func newHotPlan(seed int64, worker int, cat *catalog) (*hotPlan, error) {
	if len(cat.epochs) < 2 || len(cat.asns) == 0 || len(cat.pairs) == 0 {
		return nil, fmt.Errorf("serve_hot needs >= 2 epochs, ASes and mesh pairs; discovery found %d, %d, %d",
			len(cat.epochs), len(cat.asns), len(cat.pairs))
	}
	return &hotPlan{
		r:     newRNG(seed, worker),
		cat:   cat,
		asZ:   newZipf(len(cat.asns), zipfAlpha),
		pairZ: newZipf(len(cat.pairs), zipfAlpha),
	}, nil
}

func (p *hotPlan) pair() (a, b uint32) {
	pr := p.cat.pairs[p.pairZ.draw(p.r)]
	if p.r.next()&1 == 1 {
		return pr[1], pr[0]
	}
	return pr[0], pr[1]
}

func (p *hotPlan) next() request {
	var q request
	switch u := p.r.float(); {
	case u < 0.30:
		q.route, q.url = "top", fmt.Sprintf("/v1/top?k=%d", topKs[p.r.intn(len(topKs))])
	case u < 0.60:
		q.route, q.url = "as", fmt.Sprintf("/v1/as/%d", p.cat.asns[p.asZ.draw(p.r)])
	case u < 0.70:
		a := p.cat.epochs[p.r.intn(len(p.cat.epochs)-1)]
		q.route, q.url = "diff", fmt.Sprintf("/v1/diff/%d/%d", a, a+1)
	case u < 0.85:
		a, b := p.pair()
		q.route, q.url = "path", fmt.Sprintf("/v1/path/%d/%d", a, b)
	case u < 0.95:
		a, b := p.pair()
		q.route, q.url = "latency", fmt.Sprintf("/v1/latency/%d/%d", a, b)
	default:
		q.route, q.url = "latency_top", fmt.Sprintf("/v1/latency/top?k=%d", topKs[p.r.intn(len(topKs))])
	}
	q.revalidate = p.r.float() < revalidateProb
	if p.r.intn(tracedOneIn) == 0 {
		q.traceparent = fmt.Sprintf("00-%016x%016x-%016x-01", p.r.next(), p.r.next(), p.r.next()|1)
	}
	return q
}

// fullmapPlan is the serve_fullmap stream: unconditional whole-map
// downloads, half JSON and half ITMB, epoch uniform.
type fullmapPlan struct {
	r   *rng
	cat *catalog
}

func newFullmapPlan(seed int64, worker int, cat *catalog) (*fullmapPlan, error) {
	if len(cat.epochs) == 0 {
		return nil, fmt.Errorf("serve_fullmap needs epochs; discovery found none")
	}
	return &fullmapPlan{r: newRNG(seed, worker), cat: cat}, nil
}

func (p *fullmapPlan) next() request {
	e := p.cat.epochs[p.r.intn(len(p.cat.epochs))]
	if p.r.next()&1 == 1 {
		return request{route: "map_bin", url: fmt.Sprintf("/v1/map/%d?format=binary", e), gzip: true}
	}
	return request{route: "map_json", url: fmt.Sprintf("/v1/map/%d", e), gzip: true}
}

// recentEpochs is how many of the latest epochs a freshly booted server is
// asked whole maps and rankings of; the per-AS and per-pair URLs ask the
// latest epoch only, and the diff URLs cover every epoch.
const recentEpochs = 3

// firstTouchPlan is what the boot workloads ask a freshly booted server, each
// URL exactly once, so every request is the first touch of its cache key.
//
// sync is the timed part: the whole map of each recent epoch as JSON, which
// is what a mirror catching up after a restart downloads first and the
// costliest first touch there is (a fill of the largest body, then its
// delivery). It is the same three downloads after a fresh boot and after a
// recovery. Requests whose latency is a loopback round trip are kept out of
// it: in a burst this short they time the sandbox's thread wake-ups, not the
// program.
//
// check is the untimed part, in seeded order: the older epochs' JSON maps,
// the binary maps, rankings, diffs, per-AS views and mesh pairs, fetched only
// to compare their bytes.
func firstTouchPlan(seed int64, cat *catalog) (sync, check []request) {
	add := func(route, format string, args ...any) {
		check = append(check, request{route: route, url: fmt.Sprintf(format, args...)})
	}
	older, recent := cat.epochs, cat.epochs
	if len(recent) > recentEpochs {
		recent = recent[len(recent)-recentEpochs:]
	}
	older = older[:len(older)-len(recent)]
	for _, e := range recent {
		sync = append(sync, request{route: "map_json", url: fmt.Sprintf("/v1/map/%d", e)})
	}
	for _, e := range older {
		add("map_json", "/v1/map/%d", e)
	}
	add("epochs", "/v1/epochs")
	for _, e := range cat.epochs[1:] {
		add("diff", "/v1/diff/%d/%d", e-1, e)
	}
	for _, e := range recent {
		add("map_bin", "/v1/map/%d?format=binary", e)
		for _, k := range topKs {
			add("top", "/v1/top?epoch=%d&k=%d", e, k)
		}
	}
	for _, asn := range cat.asns {
		add("as", "/v1/as/%d", asn)
	}
	for _, pr := range cat.pairs {
		add("path", "/v1/path/%d/%d", pr[0], pr[1])
		add("latency", "/v1/latency/%d/%d", pr[0], pr[1])
	}
	r := newRNG(seed, 0)
	for i := len(check) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		check[i], check[j] = check[j], check[i]
	}
	return sync, check
}
