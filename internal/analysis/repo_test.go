package analysis

import (
	"testing"
)

// TestRepoLintClean is the dogfood gate: every package of this module must
// load, type-check, and pass the full analyzer suite with zero diagnostics.
// CI also runs `make lint`; this test makes the same guarantee reachable
// from plain `go test ./...` and keeps the loader's whole-module walk
// exercised.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	l := testLoader(t)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("LoadAll found only %d packages; the walk is likely broken", len(pkgs))
	}
	analyzers := append(All(), DeadExport(pkgs))
	for _, pkg := range pkgs {
		for _, e := range pkg.Errs {
			t.Errorf("load %s: %v", pkg.PkgPath, e)
		}
		for _, d := range Run(pkg, analyzers) {
			t.Errorf("%s", d)
		}
	}
}
