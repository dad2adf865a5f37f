package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"itmap/benchmark/clock"
)

// bodyID identifies the response a URL gave: its validator and its decoded
// bytes (length and CRC-32C, cheap enough to take on every multi-megabyte
// body without the client becoming the bottleneck).
type bodyID struct {
	etag string
	size int
	crc  uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// reference is what every URL answered so far in this run. Same seed means
// same bytes: across connections, across boots, and across a crash and
// recovery.
type reference struct {
	seen map[string]bodyID
	log  []string // first few mismatches, for the report
}

func newReference() *reference { return &reference{seen: map[string]bodyID{}} }

func (ref *reference) fail(format string, args ...any) {
	if len(ref.log) < 10 {
		ref.log = append(ref.log, fmt.Sprintf(format, args...))
	}
}

// merge folds one connection's observations in and returns how many URLs
// contradicted what the run had already seen.
func (ref *reference) merge(seen map[string]bodyID) (mismatches int) {
	urls := make([]string, 0, len(seen))
	for url := range seen {
		urls = append(urls, url)
	}
	sort.Strings(urls) // so the report names the same URLs on every run
	for _, url := range urls {
		got := seen[url]
		want, ok := ref.seen[url]
		if !ok {
			ref.seen[url] = got
			continue
		}
		if got != want {
			mismatches++
			ref.fail("%s: got %+v, this run saw %+v before", url, got, want)
		}
	}
	return mismatches
}

// source hands out planned requests; ok is false when the plan is used up.
type source func(worker int) (q request, ok bool)

// listSource serves a fixed list once, shared by all connections.
func listSource(list []request) source {
	var next atomic.Int64
	return func(int) (request, bool) {
		i := int(next.Add(1)) - 1
		if i >= len(list) {
			return request{}, false
		}
		return list[i], true
	}
}

// event is one request that completed with a correct reply.
type event struct {
	end       time.Duration // completion, since the phase started
	latencyMS float64
	bytes     int // decoded body bytes (0 for a 304)
}

// loopResult is one closed-loop phase as the clients saw it.
type loopResult struct {
	events      []event
	elapsed     time.Duration
	requests    int
	failed      int
	notModified int
	bodyBytes   int64 // decoded body bytes of 200 responses
	wireBytes   int64 // body bytes as they crossed the socket
	routes      map[string]int
}

func (l *loopResult) add(o *loopResult) {
	l.events = append(l.events, o.events...)
	l.requests += o.requests
	l.failed += o.failed
	l.notModified += o.notModified
	l.bodyBytes += o.bodyBytes
	l.wireBytes += o.wireBytes
	for route, n := range o.routes {
		l.routes[route] += n
	}
}

// conn is one keep-alive connection of the closed loop: it sends its next
// request only after the previous reply is fully read.
type conn struct {
	client *http.Client
	seen   map[string]bodyID
	wire   bytes.Buffer
	plain  bytes.Buffer
	log    []string
}

func newConn() *conn {
	return &conn{
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true, // the plan decides what encodings to offer
		}},
		seen: map[string]bodyID{},
	}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends q and checks the reply. It returns the latency (request sent to
// body fully read and decoded), the decoded body bytes of a 200, and an
// error describing why the reply is wrong, if it is.
func (c *conn) do(ctx context.Context, base string, q request, res *loopResult) (latency time.Duration, size int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+q.url, nil)
	if err != nil {
		return 0, 0, err
	}
	known, revisit := c.seen[q.url]
	conditional := q.revalidate && revisit
	if conditional {
		req.Header.Set("If-None-Match", known.etag)
	}
	if q.traceparent != "" {
		req.Header.Set("traceparent", q.traceparent)
	}
	if q.gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}

	start := clock.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	c.wire.Reset()
	_, err = c.wire.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, 0, fmt.Errorf("reading body: %w", err)
	}
	body := c.wire.Bytes()
	res.wireBytes += int64(len(body))
	if resp.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(&c.wire)
		if err != nil {
			return 0, 0, fmt.Errorf("gzip body: %w", err)
		}
		c.plain.Reset()
		if _, err := c.plain.ReadFrom(zr); err != nil {
			return 0, 0, fmt.Errorf("gzip body: %w", err)
		}
		body = c.plain.Bytes()
	}
	latency = clock.Now() - start

	etag := resp.Header.Get("ETag")
	switch resp.StatusCode {
	case http.StatusNotModified:
		res.notModified++
		if !conditional {
			return latency, 0, fmt.Errorf("304 to an unconditional request")
		}
		if len(body) != 0 {
			return latency, 0, fmt.Errorf("304 carries a %d-byte body", len(body))
		}
		if etag != known.etag {
			return latency, 0, fmt.Errorf("304 ETag %s, sent %s", etag, known.etag)
		}
	case http.StatusOK:
		size = len(body)
		res.bodyBytes += int64(size)
		if etag == "" {
			return latency, 0, fmt.Errorf("200 without an ETag")
		}
		got := bodyID{etag: etag, size: len(body), crc: crc32.Checksum(body, castagnoli)}
		if revisit {
			if got != known {
				return latency, 0, fmt.Errorf("body or ETag changed within the run: %+v then %+v", known, got)
			}
			break
		}
		// First sight on this connection: check the format once; after
		// that the CRC pins the bytes.
		if strings.Contains(q.url, "format=binary") {
			if !bytes.HasPrefix(body, []byte("ITMB")) {
				return latency, 0, fmt.Errorf("binary body does not start with the ITMB magic")
			}
		} else if !json.Valid(body) {
			return latency, 0, fmt.Errorf("JSON body does not parse")
		}
		c.seen[q.url] = got
	default:
		return latency, 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	return latency, size, nil
}

// runLoop drives conns closed-loop connections against base until src runs
// dry or the duration passes (0 = no limit), then folds what they saw into
// ref. conns must hold one entry per connection and is reused across phases
// so revisits revalidate.
func runLoop(ctx context.Context, base string, conns []*conn, src source, limit time.Duration, ref *reference) loopResult {
	parts := make([]loopResult, len(conns))
	start := clock.Now()
	var wg sync.WaitGroup
	for w, c := range conns {
		wg.Add(1)
		go func(w int, c *conn) {
			defer wg.Done()
			res := &parts[w]
			res.routes = map[string]int{}
			for ctx.Err() == nil && (limit == 0 || clock.Now()-start < limit) {
				q, ok := src(w)
				if !ok {
					return
				}
				latency, size, err := c.do(ctx, base, q, res)
				res.requests++
				res.routes[q.route]++
				if err != nil {
					res.failed++
					if len(c.log) < 5 {
						c.log = append(c.log, fmt.Sprintf("GET %s: %v", q.url, err))
					}
					continue
				}
				res.events = append(res.events, event{
					end:       clock.Now() - start,
					latencyMS: float64(latency) / float64(time.Millisecond),
					bytes:     size,
				})
			}
		}(w, c)
	}
	wg.Wait()
	total := loopResult{elapsed: clock.Now() - start, routes: map[string]int{}}
	for w, c := range conns {
		total.add(&parts[w])
		total.failed += ref.merge(c.seen)
		for _, line := range c.log {
			ref.fail("%s", line)
		}
		c.log = nil
	}
	return total
}

// get fetches one URL outside any timed loop (discovery, scrapes).
func get(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}
