package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// shared caches one Loader across tests: the slow part is source-importing
// the standard library, which only has to happen once.
var shared *Loader

func testLoader(t *testing.T) *Loader {
	t.Helper()
	if shared == nil {
		root, err := FindModuleRoot(".")
		if err != nil {
			t.Fatal(err)
		}
		l, err := NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		shared = l
	}
	return shared
}

// runCase loads testdata/src/<name>, optionally overrides its package path
// (to exercise path-scoped analyzers), runs the given analyzers, and
// returns the diagnostics with filenames reduced to their base name.
func runCase(t *testing.T, name, pkgPathOverride string, analyzers []*Analyzer) []string {
	t.Helper()
	l := testLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Errs) > 0 {
		t.Fatalf("fixture %s has load errors: %v", name, pkg.Errs)
	}
	// The loader caches packages, so restore the real path afterwards:
	// tests may run the same fixture with and without an override.
	origPath := pkg.PkgPath
	if pkgPathOverride != "" {
		pkg.PkgPath = pkgPathOverride
	}
	defer func() { pkg.PkgPath = origPath }()
	var lines []string
	for _, d := range Run(pkg, analyzers) {
		d.Pos.Filename = filepath.Base(d.Pos.Filename)
		lines = append(lines, d.String())
	}
	return lines
}

func checkGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	got := strings.Join(lines, "\n")
	if got != "" {
		got += "\n"
	}
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestNoDetermGolden(t *testing.T) {
	checkGolden(t, "nodeterm", runCase(t, "nodeterm", "", All()))
}

// TestNoDetermAllowlist proves the seeded substrates themselves are exempt:
// the same banned calls produce nothing when the package path says randx.
func TestNoDetermAllowlist(t *testing.T) {
	lines := runCase(t, "nodetermok", "itmap/internal/randx", All())
	if len(lines) != 0 {
		t.Errorf("allowlisted package produced diagnostics:\n%s", strings.Join(lines, "\n"))
	}
}

func TestMapOrderGolden(t *testing.T) {
	checkGolden(t, "maporder", runCase(t, "maporder", "", All()))
}

func TestFloatFoldGolden(t *testing.T) {
	checkGolden(t, "floatfold", runCase(t, "floatfold", "", All()))
}

func TestErrDropGolden(t *testing.T) {
	checkGolden(t, "errdrop", runCase(t, "errdrop", "itmap/internal/measure/fixture", All()))
}

// TestErrDropOutOfScope proves errdrop keeps to its patrol area: identical
// violations outside internal/measure and internal/core are not reported.
func TestErrDropOutOfScope(t *testing.T) {
	lines := runCase(t, "errdropout", "", All())
	if len(lines) != 0 {
		t.Errorf("out-of-scope package produced diagnostics:\n%s", strings.Join(lines, "\n"))
	}
}

func TestSeedFlowGolden(t *testing.T) {
	checkGolden(t, "seedflow", runCase(t, "seedflow", "", All()))
}

// TestSuppressGolden pins the whole //itmlint:allow contract in one golden:
// the allow silences exactly the named analyzer (floatfold) on exactly one
// line while the co-located nodeterm finding survives; a stale allow, a
// malformed allow, and an unknown-analyzer allow are each reported.
func TestSuppressGolden(t *testing.T) {
	lines := runCase(t, "suppress", "", All())
	for _, l := range lines {
		if strings.Contains(l, " floatfold: ") {
			t.Errorf("allow failed to silence floatfold: %s", l)
		}
	}
	checkGolden(t, "suppress", lines)
}

// TestDeadExportGolden runs the whole-module check over a one-package
// "module": unreferenced exported funcs and methods are reported; a call, a
// function value, a method expression, interface satisfaction and an allow
// with a reason are not; an allow without a reason, or on a referenced
// name, is itself reported.
func TestDeadExportGolden(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "deadexport"))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "deadexport", runCase(t, "deadexport", "", []*Analyzer{DeadExport([]*Package{pkg})}))
}

func TestLockGuardGolden(t *testing.T) {
	checkGolden(t, "lockguard", runCase(t, "lockguard", "", All()))
}

func TestPubFreezeGolden(t *testing.T) {
	checkGolden(t, "pubfreeze", runCase(t, "pubfreeze", "", All()))
}

func TestOnceFillGolden(t *testing.T) {
	checkGolden(t, "oncefill", runCase(t, "oncefill", "", All()))
}

// TestSyncAckGolden overrides the fixture's package path: syncack patrols
// only internal/mapstore/wal, and the structural file-shape check must
// fire on a journal type it has never imported.
func TestSyncAckGolden(t *testing.T) {
	checkGolden(t, "syncack", runCase(t, "syncack", "itmap/internal/mapstore/wal", All()))
}

// TestSyncAckOutOfScope proves the same fixture is silent under its real
// (testdata) package path: durability rules do not leak out of the WAL.
// (The fixture's syncack allow correctly turns stale here — the analyzer
// ran and produced nothing — so only real syncack diagnostics count as
// leaks.)
func TestSyncAckOutOfScope(t *testing.T) {
	for _, l := range runCase(t, "syncack", "", All()) {
		if strings.Contains(l, "ack only after fsync") {
			t.Errorf("out-of-scope package produced a syncack diagnostic: %s", l)
		}
	}
}

// TestGo122Golden proves the loader, CFG, and dataflow handle modern
// syntax — range-over-int, generics, method values — and that the one
// planted violation inside a range-over-int body is still found.
func TestGo122Golden(t *testing.T) {
	checkGolden(t, "go122", runCase(t, "go122", "", All()))
}

// TestPartialRunIgnoresForeignAllows proves a single-analyzer run does not
// judge allows belonging to analyzers that did not run: the fixture's
// //itmlint:allow nodeterm must not be reported stale when only floatfold
// runs.
func TestPartialRunIgnoresForeignAllows(t *testing.T) {
	lines := runCase(t, "suppress", "", []*Analyzer{FloatFold})
	for _, l := range lines {
		if strings.Contains(l, "stale //itmlint:allow nodeterm") {
			t.Errorf("partial run reported a foreign allow as stale: %s", l)
		}
	}
}
