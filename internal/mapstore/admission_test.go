package mapstore

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"itmap/internal/obs"
)

// gatedHandler blocks every non-operator request on gate, so tests control
// exactly when slots free up.
func gatedHandler(gate chan struct{}, order *[]string, mu *sync.Mutex) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if mark := r.Header.Get("X-Test-Mark"); mark != "" {
			mu.Lock()
			*order = append(*order, mark)
			mu.Unlock()
			w.WriteHeader(http.StatusOK)
			return
		}
		<-gate
		w.WriteHeader(http.StatusOK)
	})
}

func TestOverloadScenarioDeterministic(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	for run := 0; run < 5; run++ {
		res := OverloadScenario(3, 5, 7)
		if res.Admitted != 8 || res.Shed != 7 || res.Issued != 15 {
			t.Fatalf("run %d: admitted=%d shed=%d issued=%d, want 8/7/15",
				run, res.Admitted, res.Shed, res.Issued)
		}
		if res.Admitted+res.Shed != res.Issued {
			t.Fatalf("run %d: conservation violated: %+v", run, res)
		}
		if !res.RetryAfterOK {
			t.Fatalf("run %d: shed responses missing Retry-After", run)
		}
	}
}

// TestAdmissionPriorityHandoff: when a slot frees up, the queued
// revalidation (If-None-Match) runs before the queued cold read even
// though it arrived later — cached reads before cold fills.
func TestAdmissionPriorityHandoff(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	adm := NewAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 4})
	gate := make(chan struct{})
	var order []string
	var mu sync.Mutex
	h := adm.Wrap(gatedHandler(gate, &order, &mu))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupies the only slot
		defer wg.Done()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/top", nil))
	}()
	for adm.InFlight() < 1 {
		runtime.Gosched()
	}
	enqueue := func(mark string, conditional bool) {
		wg.Add(1)
		depth := adm.QueueDepth()
		go func() {
			defer wg.Done()
			req := httptest.NewRequest("GET", "/v1/top", nil)
			req.Header.Set("X-Test-Mark", mark)
			if conditional {
				req.Header.Set("If-None-Match", `"itm-e0-whatever"`)
			}
			h.ServeHTTP(httptest.NewRecorder(), req)
		}()
		for adm.QueueDepth() <= depth {
			runtime.Gosched()
		}
	}
	enqueue("cold", false)        // arrives first, low lane
	enqueue("revalidation", true) // arrives second, high lane

	close(gate) // slot holder finishes; handoff begins
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "revalidation" || order[1] != "cold" {
		t.Fatalf("execution order = %v, want [revalidation cold]", order)
	}
}

// TestAdmissionDrain is the SIGTERM contract: the in-flight slow request
// completes with 200, queued and new arrivals get 503 + Retry-After.
func TestAdmissionDrain(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	adm := NewAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 4})
	gate := make(chan struct{})
	var order []string
	var mu sync.Mutex
	h := adm.Wrap(gatedHandler(gate, &order, &mu))

	slow := httptest.NewRecorder()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the in-flight slow request
		defer wg.Done()
		h.ServeHTTP(slow, httptest.NewRequest("GET", "/v1/map/0", nil))
	}()
	for adm.InFlight() < 1 {
		runtime.Gosched()
	}
	queued := httptest.NewRecorder()
	wg.Add(1)
	go func() { // parked in the wait queue behind the slow request
		defer wg.Done()
		h.ServeHTTP(queued, httptest.NewRequest("GET", "/v1/top", nil))
	}()
	for adm.QueueDepth() < 1 {
		runtime.Gosched()
	}

	adm.BeginDrain()

	// New arrival during drain: shed on sight.
	fresh := httptest.NewRecorder()
	h.ServeHTTP(fresh, httptest.NewRequest("GET", "/v1/top", nil))
	if fresh.Code != http.StatusServiceUnavailable {
		t.Fatalf("arrival during drain: %d, want 503", fresh.Code)
	}
	if fresh.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	// Operator routes still answer during drain.
	hz := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Test-Mark", "healthz")
	h.ServeHTTP(hz, req)
	if hz.Code != http.StatusOK {
		t.Fatalf("/healthz during drain: %d, want 200", hz.Code)
	}

	close(gate) // let the slow request finish
	wg.Wait()
	if slow.Code != http.StatusOK {
		t.Fatalf("in-flight request during drain: %d, want 200", slow.Code)
	}
	if queued.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued request at drain: %d, want 503", queued.Code)
	}
	if adm.InFlight() != 0 {
		t.Fatalf("inflight after drain = %d, want 0", adm.InFlight())
	}
}

// TestAdmissionAbandonedWaiter: a queued client that disconnects gives up
// its queue spot, and the freed slot passes over it without leaking.
func TestAdmissionAbandonedWaiter(t *testing.T) {
	defer obs.Swap(obs.NewSet())
	adm := NewAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 4})
	gate := make(chan struct{})
	var order []string
	var mu sync.Mutex
	h := adm.Wrap(gatedHandler(gate, &order, &mu))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/top", nil))
	}()
	for adm.InFlight() < 1 {
		runtime.Gosched()
	}

	ctx, cancel := context.WithCancel(context.Background())
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest("GET", "/v1/top", nil).WithContext(ctx)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	for adm.QueueDepth() < 1 {
		runtime.Gosched()
	}
	cancel()
	for adm.QueueDepth() > 0 {
		runtime.Gosched()
	}

	close(gate)
	wg.Wait()
	if got := adm.InFlight(); got != 0 {
		t.Fatalf("inflight after abandoned waiter = %d, want 0 (slot leaked)", got)
	}
	// The valve still works: a fresh request is admitted immediately.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/top", nil)
	req.Header.Set("X-Test-Mark", "after")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("request after abandoned waiter: %d, want 200", rec.Code)
	}
}

// TestAdmissionInflightGaugeSettles is the idle-valve check on the in-flight
// gauge: after every round of concurrent requests — some admitted at once,
// some handed a slot from the queue — the valve is idle, so the gauge must
// read 0. Publishing the gauge outside the valve's lock let two concurrent
// releases land their values out of order and leave it stuck above 0.
func TestAdmissionInflightGaugeSettles(t *testing.T) {
	prev := obs.Swap(obs.NewSet())
	defer obs.Swap(prev)
	rounds, perRound := 4000, 32
	if testing.Short() {
		rounds = 200
	}
	h := NewAdmission(AdmissionConfig{MaxInFlight: 8, MaxQueue: perRound}).
		Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { runtime.Gosched() }))
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < perRound; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/top", nil))
			}()
		}
		wg.Wait()
		if got := seriesValue(obs.Metrics(), "itm_admission_inflight"); got != 0 {
			t.Fatalf("round %d: idle valve reports itm_admission_inflight %v", round, got)
		}
	}
	if got := seriesValue(obs.Metrics(), "itm_admission_admitted_total"); got != float64(rounds*perRound) {
		t.Fatalf("admitted %v requests, want %d", got, rounds*perRound)
	}
}
