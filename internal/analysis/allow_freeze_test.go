package analysis

// allow_freeze_test.go pins the line-level //itmlint:allow population for
// the v2 concurrency/durability analyzers, the way the nodeterm freeze
// pins its package exemptions: growing the list is a reviewed decision,
// not a drive-by. Suppressing lockguard/pubfreeze/oncefill/syncack hides
// a potential data race or a broken durability ack, so every entry must
// clear a high bar — today that is exactly one: WireClient.Close, which
// deliberately skips its mutex to interrupt a blocked read.

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var v2AllowRe = regexp.MustCompile(`//itmlint:allow\s+(lockguard|pubfreeze|oncefill|syncack)\b`)

// TestV2AllowlistFrozen walks every non-testdata .go file in the module
// and asserts the v2-analyzer allows are exactly the frozen set.
func TestV2AllowlistFrozen(t *testing.T) {
	frozen := map[string]bool{
		"internal/dnssim/wire.go:lockguard": true,
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	err = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			// Fixtures demonstrate suppressions on purpose.
			if info.Name() == "testdata" || strings.HasPrefix(info.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if m := v2AllowRe.FindStringSubmatch(sc.Text()); m != nil {
				got[filepath.ToSlash(rel)+":"+m[1]] = true
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := range got {
		if !frozen[k] {
			t.Errorf("new //itmlint:allow for a v2 analyzer at %s — these suppress race/durability checks; extend the frozen set only with review", k)
		}
	}
	for k := range frozen {
		if !got[k] {
			t.Errorf("frozen allow %s no longer exists; prune it from the frozen set", k)
		}
	}
}

// TestDeadExportAllowsFrozen pins what the deadexport check is told to
// leave alone. The repository is lint-clean (TestRepoLintClean), so what the
// check reports before suppression is exactly the set of names kept under
// an //itmlint:allow deadexport — exported API under internal/ that no
// non-test file calls. Each entry is here for the reason its allow line
// gives: test support that tests of *other* packages call, a name
// benchmark/_tracer (its own module) calls, the one switch of a fault model
// the stable exposition already lists. The set may shrink freely; growing it means new code nothing calls, which
// is a reviewed decision.
func TestDeadExportAllowsFrozen(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	frozen := map[string]bool{
		// Test support, called by tests of other packages.
		"internal/bgp/collector.go:ObservedLinks":         true,
		"internal/dnssim/dnssim.go:At":                    true,
		"internal/mapstore/wal/fs.go:NewMemFS":            true,
		"internal/mapstore/wal/fs.go:NewFaultFS":          true,
		"internal/mapstore/wal/fs.go:Crashed":             true,
		"internal/mapstore/wal/fs.go:CrashImage":          true,
		"internal/mapstore/wal/wal.go:Len":                true,
		"internal/services/select.go:ServesSNI":           true,
		"internal/topology/invariants.go:CheckInvariants": true,
		// Called from outside the loaded module.
		"internal/mapstore/store.go:AppendMap":      true,
		"internal/mapstore/store.go:Latest":         true,
		"internal/mapstore/codec.go:EncodeDocument": true,
		"internal/mapstore/codec.go:DecodeDocument": true,
	}
	l := testLoader(t)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	an := DeadExport(pkgs)
	var raw []Diagnostic
	for _, pkg := range pkgs {
		an.Run(&Pass{An: an, Pkg: pkg, out: &raw})
	}
	got := map[string]bool{}
	for _, d := range raw {
		rel, err := filepath.Rel(l.ModuleDir, d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.Fields(strings.TrimPrefix(d.Message, "exported "))[0]
		got[filepath.ToSlash(rel)+":"+name] = true
	}
	for k := range got {
		if !frozen[k] {
			t.Errorf("%s is exported under internal/ and nothing outside tests calls it: delete it rather than allowing it", k)
		}
	}
	for k := range frozen {
		if !got[k] {
			t.Errorf("frozen deadexport allow %s is gone or has a caller now; prune it from the frozen set", k)
		}
	}
}
