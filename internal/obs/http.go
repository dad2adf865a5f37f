package obs

import (
	"net/http"
	"strconv"
	"time"
)

// statusWriter captures the status code and body size a handler writes.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// The serving-stack HTTP families.
var (
	httpRequests = NewCounter("itm_http_requests_total",
		"HTTP requests served, by route pattern and status class.", "class", "route")
	httpTracedRequests = NewCounter("itm_http_traced_requests_total",
		"HTTP requests carrying a valid traceparent, by route pattern and status class.", "class", "route")
	// Sizes are a function of the served document, not the host, so this
	// histogram is stable — and the family whose exemplars link buckets back
	// to trace IDs.
	httpResponseBytes = NewHistogram("itm_http_response_bytes",
		"Response body bytes for traced requests, by route pattern; bucket exemplars carry trace IDs.",
		[]float64{256, 1024, 4096, 16384, 65536, 262144, 1048576}, "route")
	// Seconds, tuned for an in-memory store: most answers are
	// sub-millisecond, full-document encodes reach tens of milliseconds.
	httpRequestSeconds = NewHistogram("itm_http_request_seconds",
		"Wall-clock request duration by route pattern (volatile: excluded from stable dumps).",
		[]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}, "route").Volatile()
	traceDropped = NewCounter("itm_trace_dropped_total",
		"Spans dropped past a trace's span cap, by trace name.", "trace")
)

// DeclareHTTPMetrics registers HELP/TYPE for the serving-stack HTTP
// families up front, so they appear in the stable exposition even before
// (or without) traffic.
func DeclareHTTPMetrics() {
	Declare(httpRequests, httpTracedRequests, httpResponseBytes, traceDropped)
}

// InstrumentHandler wraps h with request counting, wall-duration
// observation, and W3C traceparent acceptance under the given route label
// (use the route *pattern*, never the raw path — label cardinality must
// stay bounded).
//
// A request carrying a valid traceparent additionally: lands a root span in
// the "http" trace (virtual times; ordering is by route + trace ID, both
// deterministic), observes the stable itm_http_response_bytes histogram
// with the trace ID as the bucket exemplar, and emits an http.access debug
// event. Untraced requests (health polls, manual curls) never touch those
// deterministic surfaces.
//
// The wall-duration observation is the obs layer's only wall-clock use:
// request latency is a property of the serving host, not the simulation, so
// it cannot come from simtime. The two reads below are the documented
// bridges (DESIGN.md §10); the duration histogram is registered volatile so
// wall time never reaches a stable (golden-testable) dump.
func InstrumentHandler(route string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traceID, parentID, traced := ParseTraceparent(r.Header.Get("traceparent"))
		//itmlint:allow nodeterm HTTP wall-duration bridge, DESIGN.md §10
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		//itmlint:allow nodeterm HTTP wall-duration bridge, DESIGN.md §10
		elapsed := time.Since(start)
		class := strconv.Itoa(sw.status/100) + "xx"
		httpRequests.With(class, route).Inc()
		httpRequestSeconds.With(route).ObserveExemplar(elapsed.Seconds(), traceID)
		if !traced {
			return
		}
		httpTracedRequests.With(class, route).Inc()
		httpResponseBytes.With(route).ObserveExemplar(float64(sw.bytes), traceID)
		cache := sw.Header().Get("X-Cache")
		sp := Default().Trc.Trace("http").Start(route, 0)
		sp.SetAttr("trace_id", traceID)
		sp.SetAttr("parent_id", parentID)
		sp.SetAttrInt("status", int64(sw.status))
		sp.SetAttrInt("bytes", int64(sw.bytes))
		if cache != "" {
			sp.SetAttr("cache", cache)
		}
		sp.End(0)
		Event(Debug, "http.access", "trace_id", traceID, "route", route,
			"status", sw.status, "bytes", sw.bytes, "cache", cache)
	})
}

// MetricsHandler serves the registry in Prometheus text format 0.0.4,
// volatile families included.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w, true)
	})
}
