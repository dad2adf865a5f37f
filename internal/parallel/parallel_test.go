package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// withCPUs runs fn with GOMAXPROCS set to cpus and restores it on return.
// Tests that call it must not call t.Parallel: GOMAXPROCS is process-wide.
func withCPUs(cpus int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cpus))
	fn()
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	// One CPU, a count that does not divide n, and more CPUs than items.
	for _, tc := range []struct{ cpus, n int }{{1, 1000}, {3, 1000}, {8, 5}} {
		hits := make([]int32, tc.n)
		withCPUs(tc.cpus, func() {
			ForEach(tc.n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("GOMAXPROCS=%d, n=%d: index %d hit %d times", tc.cpus, tc.n, i, h)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	ForEach(0, func(int) { t.Fatal("fn called for n=0") })
	ForEach(-5, func(int) { t.Fatal("fn called for n<0") })
}

func TestWorkersClamps(t *testing.T) {
	withCPUs(8, func() {
		if w := Workers(3); w != 3 {
			t.Fatalf("GOMAXPROCS=8: Workers(3)=%d, want 3", w)
		}
		if w := Workers(1000); w != 8 {
			t.Fatalf("GOMAXPROCS=8: Workers(1000)=%d, want 8", w)
		}
	})
	if w := Workers(0); w != 1 {
		t.Fatalf("Workers(0)=%d, want 1", w)
	}
}
