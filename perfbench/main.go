// Command perfbench is chow88's repeatable benchmark. One run measures one
// workload for a fixed time and prints, as its last line, one JSON object
// with the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run). run.sh builds it and chowd from the checkout and runs it:
//
//	bash perfbench/run.sh --workload suite --seed 1 --seconds 10 --trace 0
//
// Workloads, the reasons they were chosen and the layer-to-metric map are
// recorded in BENCHMARK.json and perfbench/design.json. Every operation's
// output is checked (against the interp oracle, or against a full compile
// for edit); any mismatch makes the run exit 1 with "correct": false.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// chowd is the daemon binary the daemon workload starts.
	chowd string
	// workdir receives statefiles, the daemon socket and trace files.
	workdir string
	// corruptOracle perturbs every expected output, so that the oracle
	// gate can be shown to fail a run; only the self-test sets it.
	corruptOracle bool
	// corruptImage perturbs every expected daemon image but not its size,
	// so that the daemon's image check can be shown to fail a run; only
	// the self-test sets it.
	corruptImage bool
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of a run's output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*config) (*outcome, error){
	"suite":   runSuite,
	"compile": runCompile,
	"edit":    runEdit,
	"daemon":  runDaemon,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: suite, compile, edit or daemon")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&cfg.chowd, "chowd", "", "chowd binary (daemon workload)")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/run", "scratch directory for statefiles, sockets and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload suite|compile|edit|daemon, -seconds > 0, -trace 0|1 (got %q, %v, %d)\n",
			cfg.workload, cfg.seconds, trace)
		return 2
	}
	cfg.trace = trace == 1
	runtime.GOMAXPROCS(runtime.NumCPU())
	return execute(cfg, wl, stdout, stderr)
}

// execute runs one workload and prints its report; it returns the exit
// code: 0 when every operation was correct, 1 otherwise.
func execute(cfg *config, wl func(*config) (*outcome, error), stdout, stderr io.Writer) int {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	s := summary{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.layers,
	}
	if !cfg.trace {
		s.Metrics = out.endToEnd()
	}
	for _, line := range out.details {
		fmt.Fprintln(stdout, line)
	}
	for _, m := range out.mismatches {
		fmt.Fprintf(stderr, "perfbench: %s: mismatch: %s\n", cfg.workload, m)
	}
	line, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !s.Correct {
		return 1
	}
	return 0
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
