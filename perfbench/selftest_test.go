package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// buildChowd builds the daemon for the daemon workload's tests.
func buildChowd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "chowd")
	cmd := exec.Command("go", "build", "-o", bin, "chow88/cmd/chowd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build chowd: %v\n%s", err, out)
	}
	return bin
}

// briefly runs one workload for a fraction of a second (unless cfg says
// otherwise) and returns its exit code and final summary.
func briefly(t *testing.T, cfg config) (int, summary) {
	t.Helper()
	if cfg.seconds == 0 {
		cfg.seconds = 0.3
	}
	// A short relative path keeps the daemon's socket path within the
	// unix socket name limit.
	dir, err := os.MkdirTemp(".", ".selftest-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	cfg.workdir = dir
	var stdout, stderr bytes.Buffer
	code := execute(&cfg, workloads[cfg.workload], &stdout, &stderr)
	t.Logf("%s exited %d; stderr:\n%s", cfg.workload, code, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("%s: last line is not a summary: %v\nstdout:\n%s\nstderr:\n%s", cfg.workload, err, &stdout, &stderr)
	}
	return code, s
}

var exactMetrics = []string{"paper_cycles", "paper_saverestore", "code_words"}

// TestExactMetricsRepeat runs every workload twice with one seed: the
// paper's exact metrics must come out identical, and every operation
// correct.
func TestExactMetricsRepeat(t *testing.T) {
	chowd := buildChowd(t)
	for _, wl := range []string{"suite", "compile", "edit", "daemon"} {
		t.Run(wl, func(t *testing.T) {
			var first summary
			for i := 0; i < 2; i++ {
				code, s := briefly(t, config{workload: wl, seed: 7, chowd: chowd})
				if code != 0 || !s.Correct || s.Failed != 0 || s.Attempted == 0 {
					t.Fatalf("run %d: exit %d, %+v", i, code, s)
				}
				for _, m := range exactMetrics {
					if s.Metrics[m].Value <= 0 {
						t.Errorf("run %d: %s = %v", i, m, s.Metrics[m].Value)
					}
				}
				if i == 0 {
					first = s
					continue
				}
				for _, m := range exactMetrics {
					if a, b := first.Metrics[m], s.Metrics[m]; a != b {
						t.Errorf("%s differs between runs with one seed: %v vs %v", m, a.Value, b.Value)
					}
				}
			}
		})
	}
}

// TestOracleGate runs every workload against a deliberately wrong
// expected output: the failures must show in the summary and in the exit
// code. The daemon-image case perturbs only the expected machine code,
// keeping its size and the programs' outputs, so that only the daemon's
// whole-image check of /compile and /compile-incremental answers can
// catch it.
func TestOracleGate(t *testing.T) {
	chowd := buildChowd(t)
	cases := map[string]config{
		"suite":        {workload: "suite", corruptOracle: true},
		"compile":      {workload: "compile", corruptOracle: true},
		"edit":         {workload: "edit", corruptOracle: true},
		"daemon":       {workload: "daemon", corruptOracle: true},
		"daemon-image": {workload: "daemon", corruptImage: true},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			cfg.seed, cfg.chowd = 7, chowd
			code, s := briefly(t, cfg)
			if code == 0 {
				t.Error("a mismatched expected output still exited 0")
			}
			if s.Correct || s.Failed == 0 {
				t.Errorf("mismatch not counted: %+v", s)
			}
			if r := s.Metrics["ok_ratio"].Value; r >= 1 {
				t.Errorf("ok_ratio = %v with %d of %d failed", r, s.Failed, s.Attempted)
			}
		})
	}
}

// TestBenchmarkJSONMatchesReport keeps BENCHMARK.json's metric lists in
// step with what the runs print.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var bench struct {
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var wantE2E, wantLayers []m
	for name, x := range newOutcome(1, closedTailCap).endToEnd() {
		wantE2E = append(wantE2E, m{name, x.Unit})
	}
	for _, u := range layerUnits {
		wantLayers = append(wantLayers, m{u.name, u.unit})
	}
	byName := func(xs []m) []m {
		sort.Slice(xs, func(i, j int) bool { return xs[i].Name < xs[j].Name })
		return xs
	}
	if got, want := byName(bench.EndToEnd), byName(wantE2E); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end:\n got %v\nwant %v", got, want)
	}
	if got, want := byName(bench.PerLayer), byName(wantLayers); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer:\n got %v\nwant %v", got, want)
	}
}

// TestTracedRunReportsLayers checks that a traced run reports every
// per-layer metric, and a nonzero figure for the layers each workload
// exercises.
func TestTracedRunReportsLayers(t *testing.T) {
	chowd := buildChowd(t)
	busy := map[string][]string{
		"suite":   {"front.ms_per_call", "core.plan_ms_per_call", "codegen.ms_per_call", "sim.cold_ms_per_run", "sim.minstr_per_s", "trace.overhead_ratio"},
		"compile": {"front.ms_per_call", "check.plan_ms_per_call", "check.code_ms_per_call", "sim.warm_ms_per_run"},
		"edit":    {"incr.load_ms", "incr.save_ms", "incr.build_ms_per_edit", "incr.reused_per_edit"},
		"daemon":  {"daemon.run.p50_ms", "daemon.server_ms_per_req", "daemon.phase.plan.ms_per_req", "daemon.admit_ratio", "incr.build_ms_per_edit", "incr.reused_per_edit"},
	}
	for wl, names := range busy {
		t.Run(wl, func(t *testing.T) {
			cfg := config{workload: wl, seed: 3, chowd: chowd, trace: true}
			if wl == "daemon" {
				// Long enough for every request kind to occur in the
				// traced half's load steps.
				cfg.seconds = 4
			}
			code, s := briefly(t, cfg)
			if code != 0 || !s.Correct {
				t.Fatalf("exit %d, %+v", code, s)
			}
			if len(s.Metrics) != len(layerUnits) {
				t.Errorf("%d metrics, want the %d per-layer ones", len(s.Metrics), len(layerUnits))
			}
			for _, u := range layerUnits {
				if _, ok := s.Metrics[u.name]; !ok {
					t.Errorf("missing %s", u.name)
				}
			}
			for _, n := range names {
				if s.Metrics[n].Value <= 0 {
					t.Errorf("%s = %v in a workload that exercises it", n, s.Metrics[n].Value)
				}
			}
			if v := s.Metrics["check.violations"].Value; v != 0 {
				t.Errorf("check.violations = %v", v)
			}
		})
	}
}
