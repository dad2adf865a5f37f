package mapstore

import (
	"net/http"
	"sync"

	"itmap/internal/obs"
)

// Admission is the serving layer's overload valve: a bounded pool of
// in-flight request slots plus a bounded FIFO wait queue. When both are
// full — or the server is draining toward shutdown — new work is shed
// immediately with 503 + Retry-After instead of piling onto a saturated
// process. Two deliberate asymmetries:
//
//   - /healthz and /metrics bypass admission entirely: an overloaded
//     server must still answer its operators.
//   - Conditional requests (If-None-Match) queue at high priority, plain
//     requests at low: a revalidation is almost always a cached 304 costing
//     microseconds, so under pressure cached reads drain before cold fills.
//
// The valve holds no clocks. Waiters are bounded by queue *capacity*, not
// wall-time deadlines, and the Retry-After hint is a constant — so shed
// counts are a pure function of arrival order, which is what lets the
// overload tests assert exact, worker-count-invariant numbers (see
// OverloadScenario). A queued request still abandons its slot if the client
// disconnects (request context cancellation).
type Admission struct {
	maxInFlight int
	maxQueue    int

	mu sync.Mutex
	//itm:guardedby mu
	inFlight int
	//itm:guardedby mu
	queue [2][]*waiter // [priority high, low], FIFO each
	//itm:guardedby mu
	queued int // live (non-abandoned) waiters across both lanes
	//itm:guardedby mu
	draining bool
}

// Queue lanes: conditional revalidations ahead of cold reads.
const (
	laneHigh = 0
	laneLow  = 1
)

// waiter is one queued request. decided flips exactly once, under the
// Admission lock, to whichever of admit/shed/abandon wins the race.
type waiter struct {
	ch        chan bool // receives admit (true) or shed (false)
	decided   bool
	abandoned bool
}

// AdmissionConfig sizes the valve.
type AdmissionConfig struct {
	// MaxInFlight is how many requests may execute concurrently
	// (<= 0 takes the default).
	MaxInFlight int
	// MaxQueue is how many more may wait for a slot before shedding
	// starts. 0 disables queueing — shed the moment every slot is busy;
	// negative takes the default.
	MaxQueue int
}

// Defaults for AdmissionConfig: sized so a tiny-world smoke never sheds
// but a deliberate burst (loadgen -overload) reliably does.
const (
	DefaultMaxInFlight = 64
	DefaultMaxQueue    = 256
)

// retryAfter is the fixed backoff hint, in seconds, shed responses carry.
const retryAfter = "1"

// The valve's families; NewAdmission declares them.
var (
	admissionAdmitted = obs.NewCounter("itm_admission_admitted_total",
		"Requests granted an execution slot (immediately or after queueing).")
	admissionQueued = obs.NewCounter("itm_admission_queued_total",
		"Requests that waited in the admission queue before a decision.")
	admissionShed   = obs.NewCounter("itm_admission_shed_total", "Requests shed with 503 (queue full or draining).")
	admissionBypass = obs.NewCounter("itm_admission_bypass_total",
		"Requests on always-admitted operator routes (/healthz, /metrics).")
	admissionInflight = obs.NewGauge("itm_admission_inflight", "Requests currently holding an execution slot.")
)

// NewAdmission builds the valve and declares its metric families.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = DefaultMaxQueue
	}
	obs.Declare(admissionAdmitted, admissionQueued, admissionShed, admissionBypass, admissionInflight)
	return &Admission{
		maxInFlight: cfg.MaxInFlight,
		maxQueue:    cfg.MaxQueue,
	}
}

// alwaysAdmit lists the operator routes that bypass the valve.
func alwaysAdmit(path string) bool {
	return path == "/healthz" || path == "/metrics"
}

// Wrap applies admission control to next.
func (a *Admission) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if alwaysAdmit(r.URL.Path) {
			admissionBypass.Inc()
			next.ServeHTTP(w, r)
			return
		}
		lane := laneLow
		if r.Header.Get("If-None-Match") != "" {
			lane = laneHigh
		}
		switch a.acquire(lane, r.Context().Done()) {
		case decisionShed:
			admissionShed.Inc()
			w.Header().Set("Retry-After", retryAfter)
			writeErr(w, http.StatusServiceUnavailable, "overloaded: retry after %ss", retryAfter)
			return
		case decisionAbandoned:
			// Client gone; nothing to write, nothing held.
			return
		}
		admissionAdmitted.Inc()
		defer a.release()
		next.ServeHTTP(w, r)
	})
}

type decision int

const (
	decisionAdmit decision = iota
	decisionShed
	decisionAbandoned
)

// acquire claims an execution slot, queueing when the pool is full. It
// returns Shed when the queue is full or the valve is draining, and
// Abandoned when cancel fires before a slot frees up.
func (a *Admission) acquire(lane int, cancel <-chan struct{}) decision {
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return decisionShed
	}
	if a.inFlight < a.maxInFlight {
		a.inFlight++
		admissionInflight.Set(float64(a.inFlight))
		a.mu.Unlock()
		return decisionAdmit
	}
	if a.queued >= a.maxQueue {
		a.mu.Unlock()
		return decisionShed
	}
	wt := &waiter{ch: make(chan bool, 1)}
	a.queue[lane] = append(a.queue[lane], wt)
	a.queued++
	a.mu.Unlock()
	admissionQueued.Inc()

	select {
	case admit := <-wt.ch:
		if admit {
			return decisionAdmit
		}
		return decisionShed
	case <-cancel:
		a.mu.Lock()
		if wt.decided {
			// release() or drain already handed us an answer; honor it so a
			// directly-handed-off slot is never leaked.
			a.mu.Unlock()
			if <-wt.ch {
				a.release()
			}
			return decisionAbandoned
		}
		wt.decided = true
		wt.abandoned = true
		a.queued--
		a.mu.Unlock()
		return decisionAbandoned
	}
}

// release frees a slot: the longest-waiting high-lane request gets it by
// direct handoff (the slot never returns to the pool, so arrival order is
// the only thing that decides who runs), then the low lane, then inFlight
// drops. The gauge is published under the lock, as in acquire, so the last
// release to run is the last value published: an idle valve reads 0.
func (a *Admission) release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for lane := laneHigh; lane <= laneLow; lane++ {
		for len(a.queue[lane]) > 0 {
			wt := a.queue[lane][0]
			a.queue[lane] = a.queue[lane][1:]
			if wt.abandoned {
				continue
			}
			wt.decided = true
			a.queued--
			wt.ch <- true
			return
		}
	}
	a.inFlight--
	admissionInflight.Set(float64(a.inFlight))
}

// BeginDrain flips the valve into shutdown mode: every queued waiter is
// shed immediately, and every future arrival (outside the operator routes)
// sheds on sight. In-flight requests keep their slots — http.Server's
// Shutdown waits for them — so SIGTERM means "finish what you started,
// take nothing new".
func (a *Admission) BeginDrain() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.draining {
		return
	}
	a.draining = true
	for lane := range a.queue {
		for _, wt := range a.queue[lane] {
			if wt.abandoned || wt.decided {
				continue
			}
			wt.decided = true
			a.queued--
			wt.ch <- false
		}
		a.queue[lane] = nil
	}
}

// InFlight returns how many requests currently hold slots.
func (a *Admission) InFlight() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inFlight
}

// QueueDepth returns how many requests are waiting for a slot.
func (a *Admission) QueueDepth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued
}
