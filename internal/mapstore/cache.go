package mapstore

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"itmap/internal/obs"
)

// The epoch-keyed response cache. Epochs are immutable after Append, so a
// response derived from one epoch (a top-K ranking, a map document render,
// an epoch-to-epoch diff) can be encoded once and served as bytes forever;
// responses that span the whole store (activity series, the epoch listing)
// are valid only until the next append. The cache layout mirrors that split:
//
//   - every *Epoch carries its own responseCache, keyed by query shape
//     ("top?k=10", "map.json", "diff?a=0&b=1&min_shift=0.01"). Appends never
//     touch existing epochs, so these entries survive ingestion untouched —
//     invalidation is scoped to exactly the epochs an append changes (none).
//   - the store's epochList snapshot carries a second responseCache for
//     cross-epoch responses. Append publishes a fresh list (the existing
//     copy-on-write swap), which replaces that cache wholesale: store-scoped
//     entries invalidate by construction, with no locks on the read path.
//
// Entries fill single-flight: concurrent misses on one key encode once and
// share the bytes. Strong ETags derived from the epochs' canonical ITMB
// encodings let clients revalidate with If-None-Match and get 304s with
// zero body work.

// cacheMaxEntries bounds one responseCache's key count. Beyond it, requests
// are served uncached (counted as bypasses) rather than evicting: eviction
// order would make hit/miss counters scheduling-dependent, and a bounded
// query-shape space (k values, ASNs, epoch pairs) rarely reaches the cap.
const cacheMaxEntries = 1 << 16

// cacheEntry is one cached response body, filled exactly once.
type cacheEntry struct {
	once  sync.Once
	body  []byte
	ctype string
	err   error
}

// responseCache is a keyed set of single-flight response entries.
type responseCache struct {
	mu sync.Mutex
	//itm:guardedby mu
	entries map[string]*cacheEntry
}

func newResponseCache() *responseCache {
	return &responseCache{entries: map[string]*cacheEntry{}}
}

// lookup returns the entry for key, creating it when absent. created
// reports whether this call inserted it (a miss); ok is false when the
// cache is at capacity and the key absent, in which case the caller serves
// the request uncached.
func (c *responseCache) lookup(key string) (e *cacheEntry, created, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		return e, false, true
	}
	if len(c.entries) >= cacheMaxEntries {
		return nil, false, false
	}
	e = &cacheEntry{}
	c.entries[key] = e
	return e, true, true
}

// fill resolves the entry's body, encoding via render on first touch;
// concurrent callers block until the single flight completes.
func (e *cacheEntry) fill(route string, render renderer, q request) {
	e.once.Do(func() {
		e.body, e.ctype, e.err = render(q)
		if e.err == nil {
			cacheFills.With(route).Inc()
		}
	})
}

// len reports the number of cached entries (tests and store stats).
func (c *responseCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// --- metrics ----------------------------------------------------------------

// The response-cache families, by route pattern; NewStore declares them.
var (
	cacheHits = obs.NewCounter("itm_cache_hits_total",
		"Response-cache hits (body served from cached bytes), by route pattern.", "route")
	cacheMisses = obs.NewCounter("itm_cache_misses_total",
		"Response-cache misses (entry created by this request), by route pattern.", "route")
	cacheFills = obs.NewCounter("itm_cache_fills_total",
		"Response-cache single-flight fills (bodies encoded), by route pattern.", "route")
	cacheNotModified = obs.NewCounter("itm_cache_not_modified_total",
		"Conditional requests answered 304 via ETag match, by route pattern.", "route")
	cacheBypass = obs.NewCounter("itm_cache_bypass_total",
		"Requests served uncached because the cache was at capacity, by route pattern.", "route")
	cacheBytesServed = obs.NewCounter("itm_cache_bytes_served_total",
		"Response body bytes served through the caching path, by route pattern.", "route")
	// Created at declaration, so a campaign's stable dump carries its value
	// even before any serving-time traffic.
	cachePrebaked = obs.NewCounter("itm_cache_prebaked_total",
		"Responses pre-baked into epoch caches at append time.").DeclaredAtZero()
)

// --- ETags ------------------------------------------------------------------

// fingerprint is the FNV-1a hash backing the store's strong ETags. The
// input is the epoch's record, its canonical ITMB encodings, which is
// byte-identical across runs and worker counts, so ETags are too.
func fingerprint(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b)
	return h.Sum64()
}

// epochETag derives the strong ETag for responses scoped to one epoch, from
// its record: the map's routes and the mesh's alike.
func epochETag(id int, record []byte) string {
	return `"itm-e` + strconv.Itoa(id) + `-` + strconv.FormatUint(fingerprint(record), 16) + `"`
}

// storeETag derives the strong ETag for responses that span the store: it
// advances on every append (the generation bump), so cross-epoch responses
// revalidate as soon as a new epoch lands.
func storeETag(gen int, lastEpochTag string) string {
	return `"itm-s` + strconv.Itoa(gen) + `-` + strconv.FormatUint(fingerprint([]byte(lastEpochTag)), 16) + `"`
}

// pairETag derives the strong ETag for an epoch-pair response (diffs). The
// pair's content is immutable, so the tag never changes.
func pairETag(a, b *Epoch) string {
	return `"itm-d` + strconv.Itoa(a.ID) + `-` + strconv.Itoa(b.ID) + `-` +
		strconv.FormatUint(fingerprint([]byte(a.ETag+b.ETag)), 16) + `"`
}

// etagMatch implements the If-None-Match comparison for the strong ETags
// this package issues: a comma-separated candidate list or "*". Weak tags
// (W/ prefix) never match — we only ever emit strong ones.
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for len(header) > 0 {
		var tok string
		if i := strings.IndexByte(header, ','); i >= 0 {
			tok, header = header[:i], header[i+1:]
		} else {
			tok, header = header, ""
		}
		if strings.TrimSpace(tok) == etag {
			return true
		}
	}
	return false
}

// statusErr lets a route's resolver report a client-visible status instead
// of the generic 500.
type statusErr struct {
	code int
	msg  string
}

func (e *statusErr) Error() string { return e.msg }

func notFound(format string, args ...any) error {
	return &statusErr{http.StatusNotFound, fmt.Sprintf(format, args...)}
}

func badRequest(format string, args ...any) error {
	return &statusErr{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

func writeRenderErr(w http.ResponseWriter, err error) {
	if se, ok := err.(*statusErr); ok {
		writeErr(w, se.code, "%s", se.msg)
		return
	}
	writeErr(w, http.StatusInternalServerError, "%v", err)
}

// serveCached is the caching serve path: answer If-None-Match with 304 and
// zero body work, otherwise serve the cached bytes (single-flight filling
// them on first touch) with ETag, Content-Length, and an X-Cache header
// clients can fold into deterministic hit/miss ledgers.
func serveCached(w http.ResponseWriter, r *http.Request, route string, q request, render renderer) {
	if etagMatch(r.Header.Get("If-None-Match"), q.etag) {
		w.Header().Set("ETag", q.etag)
		cacheNotModified.With(route).Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if q.stored != nil {
		// The zero-copy path (?format=binary): the epoch's stored canonical
		// ITMB encoding goes straight to the wire — no decode, no re-encode,
		// no copy. no-transform guards the byte-identity contract (clients
		// may hash the body against the codec's output).
		w.Header().Set("Cache-Control", "no-transform")
		cacheHits.With(route).Inc()
		writeCachedBody(w, route, q.etag, "application/octet-stream", "store", q.stored)
		return
	}
	entry, created, ok := q.cache.lookup(q.key)
	if !ok {
		body, ctype, err := render(q)
		if err != nil {
			writeRenderErr(w, err)
			return
		}
		cacheBypass.With(route).Inc()
		writeCachedBody(w, route, q.etag, ctype, "bypass", body)
		return
	}
	if created {
		cacheMisses.With(route).Inc()
	} else {
		cacheHits.With(route).Inc()
	}
	entry.fill(route, render, q)
	if entry.err != nil {
		writeRenderErr(w, entry.err)
		return
	}
	result := "hit"
	if created {
		result = "miss"
	}
	writeCachedBody(w, route, q.etag, entry.ctype, result, entry.body)
}

// writeCachedBody emits a fully-materialized response body with the strong
// validator and explicit length.
func writeCachedBody(w http.ResponseWriter, route, etag, ctype, xcache string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", ctype)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	h.Set("ETag", etag)
	h.Set("X-Cache", xcache)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	cacheBytesServed.With(route).Add(uint64(len(body)))
}
