package loadgen

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// OverloadConfig shapes one unpaced burst against an admission-controlled
// server. Unlike the paced replay, the point is to saturate: every worker
// fires its next request the moment the previous one returns, and 503s are
// outcomes to count, not errors to abort on.
type OverloadConfig struct {
	// Base is the URL prefix requests are issued against.
	Base string
	// Seed drives the URL plan (same seed, same URLs in the same order).
	Seed int64
	// Requests is the total number of burst requests.
	Requests int
	// Workers is the burst concurrency (default 4).
	Workers int
}

// OverloadCounters is the burst ledger. The exact admitted/shed split over
// real HTTP depends on timing, but two properties are invariant and
// asserted by RunOverload itself: conservation (admitted + shed == issued)
// and that every shed response carried Retry-After. For exact,
// worker-count-invariant shed counts, see mapstore.OverloadScenario — the
// in-process phased variant itm-bench folds into BENCH_serve.json.
type OverloadCounters struct {
	Issued   uint64            `json:"issued"`
	Admitted uint64            `json:"admitted"`
	Shed     uint64            `json:"shed"`
	Status   map[string]uint64 `json:"status"`
	// RetryAfterMissing counts 503s without a Retry-After header; RunOverload
	// fails the run when it is nonzero, so a reported ledger always has 0.
	RetryAfterMissing uint64 `json:"retry_after_missing"`
}

// RunOverload blasts the planned mix unpaced and verifies the overload
// contract: nothing but 2xx/304/503 comes back, admitted + shed == issued,
// and every shed carries Retry-After.
func RunOverload(cfg OverloadConfig, d Doer) (*OverloadCounters, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("loadgen: Requests must be positive")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	pcfg := Config{Base: cfg.Base, Seed: cfg.Seed, Requests: cfg.Requests}
	pcfg.fill()
	sh, err := discover(d, cfg.Base, pcfg.Mix)
	if err != nil {
		return nil, err
	}
	reqs := plan(pcfg, sh)

	// Burst sharding is plain round-robin: there is no per-URL conditional
	// state to keep ordered, and the ledger only promises order-independent
	// sums.
	shards := make([][]request, cfg.Workers)
	for i, r := range reqs {
		shards[i%cfg.Workers] = append(shards[i%cfg.Workers], r)
	}

	counters := make([]*OverloadCounters, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for w := range shards {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			counters[w], errs[w] = burstWorker(cfg.Base, d, shards[w])
		}(w)
	}
	wg.Wait()

	total := &OverloadCounters{Status: map[string]uint64{}}
	for w := range shards {
		if errs[w] != nil {
			return nil, errs[w]
		}
		c := counters[w]
		total.Issued += c.Issued
		total.Admitted += c.Admitted
		total.Shed += c.Shed
		total.RetryAfterMissing += c.RetryAfterMissing
		for code, n := range c.Status {
			total.Status[code] += n
		}
	}
	if total.Admitted+total.Shed != total.Issued {
		return nil, fmt.Errorf("loadgen: overload conservation violated: admitted %d + shed %d != issued %d",
			total.Admitted, total.Shed, total.Issued)
	}
	if total.RetryAfterMissing > 0 {
		return nil, fmt.Errorf("loadgen: %d shed responses missing Retry-After", total.RetryAfterMissing)
	}
	return total, nil
}

func burstWorker(base string, d Doer, reqs []request) (*OverloadCounters, error) {
	c := &OverloadCounters{Status: map[string]uint64{}}
	for _, r := range reqs {
		req, err := http.NewRequest(http.MethodGet, base+r.url, nil)
		if err != nil {
			return nil, err
		}
		resp, err := d.Do(req)
		if err != nil {
			return nil, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			return nil, err
		}
		c.Issued++
		c.Status[strconv.Itoa(resp.StatusCode)]++
		switch {
		case resp.StatusCode == http.StatusServiceUnavailable:
			c.Shed++
			if resp.Header.Get("Retry-After") == "" {
				c.RetryAfterMissing++
			}
		case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotModified:
			c.Admitted++
		default:
			return nil, fmt.Errorf("loadgen: GET %s: unexpected status %d under overload", r.url, resp.StatusCode)
		}
	}
	return c, nil
}
