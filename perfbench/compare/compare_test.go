package main

import "testing"

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) gives, which the benchmark's spread
// rule is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{1.5, 2.5, 2.5, 7, 9.25, 11}, [3]float64{2.25, 4.75, 9.6875}},
	}
	for _, c := range cases {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	wall := metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}
	parent := []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		name   string
		spec   metricSpec
		change []float64
		want   string
	}{
		{"faster", wall, scaled(0.8), "better"},
		{"slower beyond the bound", wall, scaled(1.3), "worse"},
		{"unchanged", wall, parent, "within bound 0.10"},
		{"too noisy", wall, []float64{5, 15, 5, 15, 5, 15, 5, 15, 5, 15}, "unresolved (spread wider than bound)"},
		{"count moved", metricSpec{Name: "cpu.retired", Unit: "count"}, scaled(1.001), "differs"},
		{"count held", metricSpec{Name: "cpu.retired", Unit: "count"}, parent, "identical"},
	}
	for _, c := range cases {
		if got := verdict(c.spec, parent, c.change, parent, c.change); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}
