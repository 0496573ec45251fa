package main

import (
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lat := benchMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	parent := []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10}
	cases := []struct {
		name   string
		m      benchMetric
		change []float64
		exact  bool
		want   string
	}{
		{"clear gain", lat, []float64{9, 9.1, 8.9, 9.2, 8.8, 9, 9.1, 8.9, 9, 9}, false, "gain"},
		// Faster in 8 of 10 pairs is not enough to call a gain.
		{"too few wins", lat, []float64{9, 9, 9, 9, 9, 9, 9, 9, 11, 11}, false, "within bound"},
		{"regression", lat, []float64{12, 12, 12, 12, 12, 12, 12, 12, 12, 12}, false, "regression"},
		{"noise", lat, []float64{8, 12, 9, 13, 10, 8, 12, 14, 7, 10}, false, "unresolved"},
		{"same", lat, parent, false, "within bound"},
		{"higher is better", benchMetric{Better: "higher", Bound: 0.1}, []float64{11, 11, 11, 11, 11, 11, 11, 11, 11, 11}, false, "gain"},
		{"exact equal", benchMetric{Better: "lower"}, []float64{5, 7}, true, "equal"},
		{"exact differs", benchMetric{Better: "lower"}, []float64{5, 6}, true, "differs"},
	}
	for _, c := range cases {
		p := parent
		if c.exact {
			// Exact metrics differ between seeds but not within a pair.
			p = []float64{5, 7}
		}
		got := judge(c.m, p, c.change, c.exact)
		if !strings.HasPrefix(got.verdict, c.want) {
			t.Errorf("%s: verdict %q, want %q (wins %d/%d)", c.name, got.verdict, c.want, got.wins, got.pairs)
		}
	}
}

func TestJudgeTiesCountForNeither(t *testing.T) {
	m := benchMetric{Better: "lower", Bound: 0.1}
	got := judge(m, []float64{1, 2, 3}, []float64{1, 1, 3}, false)
	if got.wins != 1 || got.pairs != 3 {
		t.Errorf("wins %d/%d, want 1/3", got.wins, got.pairs)
	}
}
