package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Level is an event severity.
type Level uint8

// Severities, lowest first.
const (
	Debug Level = iota
	Info
	Warn
	Error
)

func (l Level) String() string {
	switch l {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	}
	return "unknown"
}

var eventsTotal = NewCounter("itm_events_total", "Structured events emitted, by level.", "level")

// Logger is the structured event log: leveled key=value lines replacing
// ad-hoc prints. Events carry no wall-clock timestamp — callers that care
// about *when* pass a simulated time via T — so a seeded run's event stream
// is reproducible byte for byte as long as events are emitted from serial
// points (stage boundaries, process startup/shutdown), which is the
// convention throughout this repo.
type Logger struct {
	mu sync.Mutex
	//itm:guardedby mu
	w io.Writer
	//itm:guardedby mu
	min Level
	//itm:guardedby mu
	reg *Registry
}

// NewLogger returns a logger writing events at or above min to w.
func NewLogger(w io.Writer, min Level) *Logger {
	return &Logger{w: w, min: min}
}

// SetOutput redirects the event stream.
func (l *Logger) SetOutput(w io.Writer) {
	l.mu.Lock()
	l.w = w
	l.mu.Unlock()
}

// setRegistry wires the registry the itm_events_total counter lives in.
func (l *Logger) setRegistry(r *Registry) {
	l.mu.Lock()
	l.reg = r
	l.mu.Unlock()
}

// Event emits one structured event: `level=info event=<name> k=v ...`.
// kv is alternating keys and values; values are formatted with %v and
// quoted when they contain spaces, quotes, or '='. Every emitted event
// (and every suppressed one) increments itm_events_total{level}.
func (l *Logger) Event(level Level, event string, kv ...any) {
	l.mu.Lock()
	w, min, reg := l.w, l.min, l.reg
	l.mu.Unlock()
	if reg != nil {
		eventsTotal.In(reg, level.String()).Inc()
	}
	if level < min || w == nil {
		return
	}
	var b strings.Builder
	b.WriteString("level=")
	b.WriteString(level.String())
	b.WriteString(" event=")
	b.WriteString(eventValue(event))
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		fmt.Fprintf(&b, "%v", kv[i])
		b.WriteByte('=')
		b.WriteString(eventValue(fmt.Sprintf("%v", kv[i+1])))
	}
	if len(kv)%2 == 1 {
		b.WriteString(" !odd_kv=")
		b.WriteString(eventValue(fmt.Sprintf("%v", kv[len(kv)-1])))
	}
	b.WriteByte('\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = io.WriteString(l.w, b.String())
}

// eventValue quotes a value when the bare form would be ambiguous in a
// key=value stream.
func eventValue(s string) string {
	if s == "" || strings.ContainsAny(s, " \t\n\"=") {
		return strconv.Quote(s)
	}
	return s
}
