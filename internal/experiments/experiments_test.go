package experiments

import (
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"itmap/internal/world"
)

// envSmall is shared across tests in this package; experiments are
// read-only over it.
var envSmall = NewEnvFromWorld(world.Build(world.Small(1)))

func TestRunAllShapesHold(t *testing.T) {
	results := envSmall.RunAll()
	if len(results) != 30 {
		t.Fatalf("expected 30 experiments, got %d", len(results))
	}
	seen := map[string]bool{}
	for i, r := range results {
		if r.ID != Catalogue[i].ID {
			t.Errorf("catalogue row %d is %s but its Run returned %s", i, Catalogue[i].ID, r.ID)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate experiment id %s", r.ID)
		}
		seen[r.ID] = true
		if len(r.Values) == 0 {
			t.Errorf("%s has no values", r.ID)
		}
		if !r.Pass() {
			t.Errorf("%s failed:\n%s", r.ID, Format([]*Result{r}))
		}
	}
	ids := []string{"T1", "F1a", "F1b", "F2", "E1", "E2", "E3", "E4", "E5",
		"E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22", "E23", "E24", "E25"}
	for _, id := range ids {
		if !seen[id] {
			t.Errorf("experiment %s missing", id)
		}
	}
}

// TestCatalogueMatchesExperimentsMD: the table is the index of
// EXPERIMENTS.md — same IDs, same order as its ### headings, none twice.
func TestCatalogueMatchesExperimentsMD(t *testing.T) {
	md, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var headings []string
	for _, m := range regexp.MustCompile(`(?m)^### (\S+) — `).FindAllStringSubmatch(string(md), -1) {
		headings = append(headings, m[1])
	}
	var ids []string
	seen := map[string]bool{}
	for _, x := range Catalogue {
		if seen[x.ID] {
			t.Errorf("catalogue lists %s twice", x.ID)
		}
		seen[x.ID] = true
		ids = append(ids, x.ID)
	}
	if !slices.Equal(ids, headings) {
		t.Errorf("catalogue order %v\nEXPERIMENTS.md order %v", ids, headings)
	}
}

// TestSelect: a selection comes back in catalogue order, once each, and an
// ID the catalogue does not have is refused with the valid ones named.
func TestSelect(t *testing.T) {
	rows, err := Select([]string{"E5", "F2", "E5", "T1"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, x := range rows {
		got = append(got, x.ID)
	}
	if want := []string{"T1", "F2", "E5"}; !slices.Equal(got, want) {
		t.Errorf("Select = %v, want %v", got, want)
	}
	if rows, err := Select(nil); err != nil || len(rows) != 0 {
		t.Errorf("Select(nil) = %v, %v", rows, err)
	}
	for _, bad := range []string{"E27", "e5", ""} {
		rows, err := Select([]string{"E1", bad})
		if err == nil || rows != nil {
			t.Fatalf("Select with %q = %v, %v; want an error", bad, rows, err)
		}
		if !strings.Contains(err.Error(), strconv.Quote(bad)) || !strings.Contains(err.Error(), "T1, F1a, F1b, F2, E1,") ||
			!strings.Contains(err.Error(), "E26") {
			t.Errorf("Select with %q: error %q does not name it and the valid IDs", bad, err)
		}
	}
}

func TestEnvCachesArtifacts(t *testing.T) {
	if envSmall.Discovery() != envSmall.Discovery() {
		t.Error("discovery not cached")
	}
	if envSmall.Matrix() != envSmall.Matrix() {
		t.Error("matrix not cached")
	}
	if envSmall.Map() != envSmall.Map() {
		t.Error("map not cached")
	}
}

func TestFigure1aSeriesSorted(t *testing.T) {
	r := envSmall.RunFigure1a()
	if len(r.Series) != 1 {
		t.Fatalf("F1a has %d series", len(r.Series))
	}
	s := r.Series[0]
	if len(s.Labels) != len(s.Values) {
		t.Fatal("labels/values mismatch")
	}
	for i := 1; i < len(s.Values); i++ {
		if s.Values[i] > s.Values[i-1] {
			t.Fatal("PoP series not descending")
		}
	}
}

func TestE2WeightingContrast(t *testing.T) {
	r := envSmall.RunE2()
	// The CDF series must show weighted >> unweighted at <=1 hop.
	var unw, w float64
	for _, s := range r.Series {
		for i, lbl := range s.Labels {
			switch lbl {
			case "unweighted ≤1":
				unw = s.Values[i]
			case "query-weighted ≤1":
				w = s.Values[i]
			}
		}
	}
	if w < 3*unw {
		t.Errorf("weighted short-path frac %.3f not >> unweighted %.3f", w, unw)
	}
}

func TestFormatAndMarkdown(t *testing.T) {
	r := &Result{
		ID: "X1", Title: "test",
		Values: []Value{
			{Name: "a", Paper: "1", Measured: "2", Pass: true},
			{Name: "b", Paper: "3", Measured: "4", Pass: false},
		},
		Series: []Series{{Name: "s", Labels: []string{"l"}, Values: []float64{5}}},
		Notes:  "note here",
	}
	txt := Format([]*Result{r})
	for _, want := range []string{"X1", "FAIL", "!! ", "note here", "series s"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Format output missing %q", want)
		}
	}
	md := Markdown([]*Result{r})
	for _, want := range []string{"### X1", "| a | 1 | 2 | yes |", "| b | 3 | 4 | NO |"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown output missing %q", want)
		}
	}
	r.Values = r.Values[:1]
	if !strings.Contains(Format([]*Result{r}), "PASS") {
		t.Error("all-pass result not marked PASS")
	}
}

// TestRunAllSecondSeed guards against the suite being tuned to one seed.
func TestRunAllSecondSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	env := NewEnvFromWorld(world.Build(world.Small(99)))
	for _, r := range env.RunAll() {
		if !r.Pass() {
			t.Errorf("seed 99: %s failed:\n%s", r.ID, Format([]*Result{r}))
		}
	}
}
