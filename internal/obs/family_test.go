package obs

import (
	"strings"
	"testing"
)

// A family value is inert until used, then follows the default set across
// Swap: each registry sees only the increments made while it was current.
func TestFamilyFollowsSwap(t *testing.T) {
	f := NewCounter("itm_swap_total", "Swap test.")
	a, b := NewSet(), NewSet()
	prev := Swap(a)
	defer Swap(prev)
	if strings.Contains(a.Reg.StableExposition(), "itm_swap_total") {
		t.Fatal("an unused family value registered itself")
	}
	f.Inc()
	Swap(b)
	f.Add(5)
	Swap(a)
	f.Inc()
	if got := f.In(a.Reg).Value(); got != 2 {
		t.Errorf("first registry counted %d, want 2", got)
	}
	if got := f.In(b.Reg).Value(); got != 5 {
		t.Errorf("second registry counted %d, want 5", got)
	}
}

// Declare adds only the header, except for a family declared at zero.
func TestDeclareHeaderOnlyUnlessDeclaredAtZero(t *testing.T) {
	prev := Swap(NewSet())
	defer Swap(prev)
	Declare(NewCounter("itm_header_total", "Header only."),
		NewCounter("itm_zero_total", "Created at zero.").DeclaredAtZero())
	got := Metrics().StableExposition()
	want := "# HELP itm_header_total Header only.\n# TYPE itm_header_total counter\n" +
		"# HELP itm_zero_total Created at zero.\n# TYPE itm_zero_total counter\nitm_zero_total 0\n"
	if got != want {
		t.Fatalf("declared exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestUnsortedLabelKeysPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("label keys out of order should panic at declaration")
		}
	}()
	NewCounter("itm_unsorted_total", "u.", "route", "class")
}
