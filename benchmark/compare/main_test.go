package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := metric{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metric{Name: "rps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name       string
		m          metric
		base, cand []float64
		want       string
	}{
		{"4 % faster by median, but 2 of 10 pairs lost", lower, steady, []float64{96, 96, 96, 96, 104, 104, 96, 96, 96, 97}, "within bound"},
		{"same runs", lower, steady, steady, "within bound"},
		{"5 % slower, inside the bound", lower, steady, scale(steady, 1.05), "within bound"},
		{"20 % slower", lower, steady, scale(steady, 1.20), "worse"},
		{"20 % faster", lower, steady, scale(steady, 0.80), "better"},
		{"higher is better: 20 % less", higher, steady, scale(steady, 0.80), "worse"},
		{"higher is better: 20 % more", higher, steady, scale(steady, 1.20), "better"},
		{"spread wider than the bound", lower, noisy, noisy, "unresolved"},
		{"wide spread, but every run beats every base run", lower, noisy, scale(noisy, 0.2), "better"},
		{"wide spread, every run loses", lower, noisy, scale(noisy, 5), "worse"},
	} {
		base, cand := runs{}, runs{}
		for i := range c.base {
			base["w"] = append(base["w"], run{int64(i), map[string]value{c.m.Name: {c.base[i]}}})
			cand["w"] = append(cand["w"], run{int64(i), map[string]value{c.m.Name: {c.cand[i]}}})
		}
		won, lost := pairs(c.m.Better, base, cand, "w", c.m.Name)
		if got, _ := verdict(c.m, c.base, c.cand, won, lost); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
