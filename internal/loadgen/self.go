package loadgen

import (
	"net/http"
	"net/http/httptest"
)

// HandlerDoer adapts an http.Handler into a Doer, so a replay can run
// in-process against the exact handler stack itm-serve mounts — no
// sockets, no ports, deterministic teardown. Used by itm-bench and the
// tests.
type HandlerDoer struct {
	Handler http.Handler
}

// Do serves the request straight through the handler.
func (d HandlerDoer) Do(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	d.Handler.ServeHTTP(rec, req)
	return rec.Result(), nil
}
