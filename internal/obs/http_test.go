package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestInstrumentHandlerCountsByClass(t *testing.T) {
	prev := Swap(NewSet())
	defer Swap(prev)
	h := InstrumentHandler("GET /v1/top", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("boom") != "" {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.Write([]byte("ok"))
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	for _, path := range []string{"/", "/", "/?boom=1"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	reg := Metrics()
	if got := httpRequests.In(reg, "2xx", "GET /v1/top").Value(); got != 2 {
		t.Fatalf("2xx count = %d, want 2", got)
	}
	if got := httpRequests.In(reg, "4xx", "GET /v1/top").Value(); got != 1 {
		t.Fatalf("4xx count = %d, want 1", got)
	}
	// The wall-duration histogram is volatile: on /metrics, never in the
	// stable dump.
	if !strings.Contains(fullExposition(reg), "itm_http_request_seconds_bucket") {
		t.Error("full exposition missing duration histogram")
	}
	if strings.Contains(reg.StableExposition(), "itm_http_request_seconds") {
		t.Error("stable exposition must exclude the wall-clock histogram")
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	NewCounter("itm_x_total", "x.").In(r).Inc()
	NewCounter("itm_v_total", "v.").Volatile().In(r).Inc()
	srv := httptest.NewServer(MetricsHandler(r))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type = %q", ct)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "itm_x_total 1") || !strings.Contains(body, "itm_v_total 1") {
		t.Fatalf("metrics body missing families (volatile must be served):\n%s", body)
	}
}
