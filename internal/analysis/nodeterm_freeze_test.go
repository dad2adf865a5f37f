package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNodetermAllowlistFrozen pins the nodeterm path exemptions to the two
// seeded substrates. Any other wall-clock use — such as the observability
// layer's HTTP duration bridge — must carry a justified line-level
// //itmlint:allow, never a new package exemption: line allows are visible at
// the call site and go stale loudly, path exemptions silently cover a whole
// package forever.
func TestNodetermAllowlistFrozen(t *testing.T) {
	want := map[string]bool{
		"internal/simtime": true,
		"internal/randx":   true,
	}
	if len(nodetermAllowedPkgs) != len(want) {
		t.Fatalf("nodetermAllowedPkgs = %v, want exactly %v", nodetermAllowedPkgs, want)
	}
	for pkg := range want {
		if !nodetermAllowedPkgs[pkg] {
			t.Fatalf("nodetermAllowedPkgs = %v, missing %q", nodetermAllowedPkgs, pkg)
		}
	}
}

// TestObsV2PackagesHoldNoClockExemptions pins the obs v2 determinism
// surfaces — the telemetry history ring and the SLO engine — and the load
// replayer fully inside the no-wall-clock contract: none of these packages
// may appear on the nodeterm path allowlist, and none may carry even a
// line-level //itmlint:allow nodeterm. Their whole value is that history
// samples, burn-rate reports and replay counters are byte-identical across
// runs; one smuggled clock read would quietly void that. Wall-clock serving
// performance is measured by benchmark/, outside the module.
func TestObsV2PackagesHoldNoClockExemptions(t *testing.T) {
	frozen := []string{"internal/obs/history", "internal/obs/slo", "internal/loadgen"}
	for _, pkg := range frozen {
		if nodetermAllowedPkgs[pkg] {
			t.Errorf("%s must never join nodetermAllowedPkgs", pkg)
		}
	}
	for _, pkg := range frozen {
		dir := filepath.Join("..", "..", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s: %v", dir, err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			src, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(src), "itmlint:allow nodeterm") {
				t.Errorf("%s/%s carries a nodeterm allow; these packages must stay clock-free",
					pkg, e.Name())
			}
		}
	}
}
