package obs

import (
	"io"
	"sync/atomic"

	"itmap/internal/simtime"
)

// Set bundles one registry, tracer, and event logger — the observability
// world one process (or one golden-test run) instruments into.
type Set struct {
	Reg *Registry
	Trc *Tracer
	Log *Logger
}

// NewSet returns a fresh observability world. The logger starts discarded
// at Info; commands point it at stderr.
func NewSet() *Set {
	s := &Set{Reg: NewRegistry(), Trc: NewTracer(), Log: NewLogger(io.Discard, Info)}
	s.Log.setRegistry(s.Reg)
	return s
}

var def atomic.Pointer[Set]

func init() { def.Store(NewSet()) }

// Default returns the process-wide observability set instrumented code
// reports into.
func Default() *Set { return def.Load() }

// Swap replaces the default set and returns the previous one. Byte-identity
// tests swap in a fresh set per run so two runs of the same seeded campaign
// start from identical (empty) state.
func Swap(s *Set) *Set { return def.Swap(s) }

// Metrics returns the default registry.
func Metrics() *Registry { return Default().Reg }

// Tracing returns the default tracer.
func Tracing() *Tracer { return Default().Trc }

// Events returns the default event logger.
func Events() *Logger { return Default().Log }

// Event emits a structured event through the default logger.
func Event(level Level, event string, kv ...any) {
	Default().Log.Event(level, event, kv...)
}

// ActivateTrace switches the default tracer's active trace — call at
// campaign (stage) boundaries.
func ActivateTrace(name string) *Trace { return Default().Trc.Activate(name) }

// StartSpan opens a root span in the default tracer's active trace.
func StartSpan(name string, at simtime.Time) *Span {
	return Default().Trc.Active().Start(name, at)
}
