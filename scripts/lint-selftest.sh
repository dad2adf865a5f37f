#!/bin/sh
# lint-selftest proves the itm-lint suite actually fires: a green lint run
# means nothing if the analyzers silently stopped matching. The script
# builds a throwaway module with exactly one planted violation per
# analyzer (all ten), runs itm-lint over it, and asserts the exit code
# is 1 and every expected diagnostic is present — so a regression in any
# analyzer (or in the loader's foreign-module handling) turns CI red.
set -u

GO="${GO:-go}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

mkdir -p "$TMP/internal/randx" "$TMP/internal/measure/checks" "$TMP/internal/mapstore/wal" "$TMP/cmd/use"

cat > "$TMP/go.mod" <<'EOF'
module lintcheck

go 1.22
EOF

# Stand-in for the repo's seeded substrate: seedflow keys on the
# "internal/randx" package-path suffix and the New name, so the planted
# module needs its own copy — no import of the real repo.
cat > "$TMP/internal/randx/randx.go" <<'EOF'
// Package randx is a minimal seeded source for the lint selftest.
package randx

type Source struct{ state uint64 }

func New(seed int64) *Source {
	return &Source{state: uint64(seed)*2862933555777941757 + 3037000493}
}

func (s *Source) Next() uint64 {
	s.state = s.state*6364136223846793005 + 1442695040888963407
	return s.state
}

func (s *Source) Fork() *Source { return New(int64(s.Next())) }
EOF

# The package path lands inside internal/measure so errdrop patrols it;
# everything else here is path-independent.
cat > "$TMP/internal/measure/checks/checks.go" <<'EOF'
// Package checks plants one violation per portable analyzer.
package checks

import (
	"sync"
	"sync/atomic"
	"time"

	"lintcheck/internal/randx"
)

// nodeterm: wall-clock read.
func Stamp() int64 { return time.Now().Unix() }

// maporder: map-iteration order leaks into a slice, never sorted.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// floatfold: order-dependent float accumulation over a map.
func Total(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}

func touch() error { return nil }

// errdrop: bare call statement discards the error.
func Touch() { touch() }

// seedflow: a fresh source per iteration instead of forking a parent.
func Jitter(n int) uint64 {
	var acc uint64
	for i := 0; i < n; i++ {
		acc ^= randx.New(int64(i)).Next()
	}
	return acc
}

// lockguard: guarded field written without the mutex.
type counter struct {
	mu sync.Mutex
	//itm:guardedby mu
	n int
}

func Bump(c *counter) { c.n++ }

// pubfreeze: mutation after the pointer was published.
type snap struct{ total int }

func Publish(p *atomic.Pointer[snap]) {
	s := &snap{}
	p.Store(s)
	s.total = 1
}

// oncefill: the write-once field is rewritten outside the Do closure.
type entry struct {
	once sync.Once
	body []byte
}

func Fill(e *entry, b []byte) {
	e.once.Do(func() { e.body = b })
}

func Clobber(e *entry) { e.body = nil }

// deadexport: exported under internal/, and cmd/use references everything
// planted here but this.
func Orphan() {}
EOF

# syncack patrols internal/mapstore/wal: a journal write acked with a nil
# error and no intervening Sync.
cat > "$TMP/internal/mapstore/wal/wal.go" <<'EOF'
// Package wal plants the unsynced-ack violation.
package wal

type file struct{ n int }

func (f *file) Write(p []byte) (int, error) { f.n += len(p); return len(p), nil }
func (f *file) Sync() error                 { return nil }

// The journal is fsyncable by contract, which is also what keeps deadexport
// off the Sync nothing calls.
type syncer interface{ Sync() error }

var _ syncer = (*file)(nil)

func Append(f *file, rec []byte) error {
	if _, err := f.Write(rec); err != nil {
		return err
	}
	return nil
}
EOF

# deadexport sees the whole module: this command is the non-test reference
# of every exported name planted above except checks.Orphan.
cat > "$TMP/cmd/use/main.go" <<'EOF'
// Command use references the planted packages' exported API.
package main

import (
	"lintcheck/internal/mapstore/wal"
	"lintcheck/internal/measure/checks"
	"lintcheck/internal/randx"
)

var _ = []any{checks.Stamp, checks.Keys, checks.Total, checks.Touch, checks.Jitter,
	checks.Bump, checks.Publish, checks.Fill, checks.Clobber, wal.Append, (*randx.Source).Fork}

func main() {}
EOF

cd "$REPO_ROOT"
out="$($GO run ./cmd/itm-lint -C "$TMP" 2>&1)"
status=$?

fail() {
	echo "lint-selftest: $1" >&2
	echo "--- itm-lint output ---" >&2
	echo "$out" >&2
	exit 1
}

[ "$status" -eq 1 ] || fail "expected exit 1 on the planted module, got $status"

expect() {
	echo "$out" | grep -q "$1" || fail "missing expected diagnostic: $1"
}

expect 'checks.go:.*: nodeterm: time.Now reads the wall clock'
expect 'checks.go:.*: maporder: append to out inside map iteration without a later sort'
expect 'checks.go:.*: floatfold: float fold += inside map iteration is order-dependent'
expect 'checks.go:.*: errdrop: error result of touch discarded'
expect 'checks.go:.*: seedflow: randx.New inside a loop re-seeds per iteration'
expect 'checks.go:.*: lockguard: c.n is written without holding c.mu'
expect 'checks.go:.*: pubfreeze: s was published via atomic.Pointer and is frozen'
expect 'checks.go:.*: oncefill: body is filled inside sync.Once.Do'
expect 'wal.go:.*: syncack: nil-error return reachable from the journal write'
expect 'checks.go:.*: deadexport: exported Orphan has no non-test reference'

# Exactly the ten planted findings — an unexpected eleventh means an
# analyzer started over-matching.
expect 'itm-lint: 10 diagnostic(s)'

echo "lint-selftest: all ten analyzers fired as expected"
