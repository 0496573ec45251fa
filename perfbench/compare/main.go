// Command compare judges two sets of benchmark results, a parent commit's
// against a change's, by the rule the benchmark is built for:
//
//   - report each side's median and quartiles, and the share of pairs the
//     change won (pairs are the i-th run of each side; ties count for
//     neither);
//   - call a gain only when the change won at least 9 of every 10 pairs
//     and the medians differ by more than the parent's interquartile range;
//   - call a regression when the change's median is worse than the
//     parent's by more than the metric's bound;
//   - call a metric unresolved when either side's spread (interquartile
//     range over median) exceeds its bound, unless every change run beats
//     every parent run;
//   - compare the exact metrics (exactMetrics) for equality, pair by
//     pair, whatever bound BENCHMARK.json gives them.
//
// Each input file holds one result per line: the last line perfbench
// prints. Other lines are skipped, so a whole run log can be passed. The
// i-th result of each file must come from the same workload and seed.
//
//	go run ./compare -bench ../BENCHMARK.json parent.jsonl change.jsonl
//
// The exit status is 1 when any metric regressed or an exact metric
// differs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"chow88/perfbench/stats"
)

// exactMetrics are the paper's counts. The same seed must give the same
// value on both sides, so they are compared for equality; their bounds in
// BENCHMARK.json serve only the benchmark's own repeatability check.
var exactMetrics = map[string]bool{"paper_cycles": true, "paper_saverestore": true, "code_words": true}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type result struct {
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition giving each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: compare [-bench BENCHMARK.json] parent.jsonl change.jsonl")
		return 2
	}
	bench, err := readBench(*benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	parent, err := readResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	change, err := readResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	bad := false
	fmt.Fprintf(stdout, "%-36s %-34s %-34s %-6s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, m := range append(append([]benchMetric(nil), bench.EndToEnd...), bench.PerLayer...) {
		p, c := values(parent, m.Name), values(change, m.Name)
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		j := judge(m, p, c, exactMetrics[m.Name])
		if j.verdict == "regression" || j.verdict == "differs" {
			bad = true
		}
		fmt.Fprintf(stdout, "%-36s %-34s %-34s %-6s %s\n", m.Name, quart(p), quart(c),
			fmt.Sprintf("%d/%d", j.wins, j.pairs), j.verdict)
	}
	if bad {
		return 1
	}
	return 0
}

func quart(xs []float64) string {
	q1, q2, q3 := stats.Quartiles(xs)
	if q1 == math.Trunc(q1) && q2 == math.Trunc(q2) && q3 == math.Trunc(q3) {
		// Counts, exact metrics among them, print every digit.
		return fmt.Sprintf("%.0f [%.0f, %.0f]", q2, q1, q3)
	}
	return fmt.Sprintf("%.6g [%.6g, %.6g]", q2, q1, q3)
}

// judgement is one metric's comparison.
type judgement struct {
	wins, pairs int
	verdict     string
}

// judge compares parent runs p with change runs c for metric m.
func judge(m benchMetric, p, c []float64, exact bool) judgement {
	n := len(p)
	if len(c) < n {
		n = len(c)
	}
	lower := m.Better == "lower"
	better := func(a, b float64) bool { // a better than b
		if lower {
			return a < b
		}
		return a > b
	}
	j := judgement{pairs: n}
	for i := 0; i < n; i++ {
		if better(c[i], p[i]) {
			j.wins++
		}
	}
	if exact {
		// Pairs share a seed, so an exact metric must match pair by pair.
		j.verdict = "equal"
		for i := 0; i < n; i++ {
			if p[i] != c[i] {
				j.verdict = "differs"
			}
		}
		return j
	}
	q1, pm, q3 := stats.Quartiles(p)
	_, cm, _ := stats.Quartiles(c)
	improvement := pm - cm
	if !lower {
		improvement = cm - pm
	}
	spread := math.Max(stats.Spread(p), stats.Spread(c))
	allBetter := better(minOrMax(c, lower), minOrMax(p, !lower))
	switch {
	case n > 0 && float64(j.wins) >= 0.9*float64(n) && improvement > q3-q1:
		j.verdict = "gain"
	case m.Bound > 0 && spread > m.Bound && !allBetter:
		j.verdict = fmt.Sprintf("unresolved (spread %.3f > bound %.3f)", spread, m.Bound)
	case m.Bound > 0 && -improvement > m.Bound*math.Abs(pm):
		j.verdict = "regression"
	case m.Bound > 0:
		j.verdict = "within bound"
	default:
		j.verdict = "no gain"
	}
	return j
}

// minOrMax returns the worst value of xs: the largest when lower is
// better, else the smallest.
func minOrMax(xs []float64, lower bool) float64 {
	s := stats.Sorted(xs)
	if lower {
		return s[len(s)-1]
	}
	return s[0]
}

func values(rs []result, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func readBench(path string) (*benchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// readResults reads every line of path that parses as a result with
// metrics.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rs []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r result
		if json.Unmarshal(sc.Bytes(), &r) == nil && len(r.Metrics) > 0 {
			rs = append(rs, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return rs, nil
}
