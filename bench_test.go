package chow88

import (
	"fmt"
	"testing"

	"chow88/internal/benchprog"
	"chow88/internal/codegen"
	"chow88/internal/core"
	"chow88/internal/experiments"
	"chow88/internal/front"
	"chow88/internal/ir"
	"chow88/internal/pipeline"
	"chow88/internal/sim"
)

// The bench harness regenerates every measurement of the paper's evaluation
// as testing.B benchmarks. Each iteration compiles and executes a benchmark
// program on the cycle-accurate simulator; the paper's metrics are attached
// as custom units so `go test -bench` output reproduces the table rows:
//
//	paper-cycles        executed machine cycles (Table 1/2 column I input)
//	paper-scalarLS      scalar loads+stores     (column II input)
//	paper-saverestore   the save/restore component
//	paper-cyc/call      call intensity (Table 1's cycles/call column)

func benchProgram(b *testing.B, src string, mode Mode) {
	b.Helper()
	prog, err := Compile(src, mode)
	if err != nil {
		b.Fatalf("compile: %v", err)
	}
	var last *RunResult
	for i := 0; i < b.N; i++ {
		res, err := prog.Run()
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(float64(last.Stats.Cycles), "paper-cycles")
		b.ReportMetric(float64(last.Stats.ScalarLS()), "paper-scalarLS")
		b.ReportMetric(float64(last.Stats.SaveRestoreLS()), "paper-saverestore")
		b.ReportMetric(last.Stats.CyclesPerCall(), "paper-cyc/call")
	}
}

// BenchmarkTable1 measures every suite program under the baseline and the
// three Table 1 columns (A = -O2+sw, B = -O3, C = -O3+sw).
func BenchmarkTable1(b *testing.B) {
	modes := map[string]Mode{
		"base": ModeBase(), "A": ModeA(), "B": ModeB(), "C": ModeC(),
	}
	for _, prog := range benchprog.All() {
		for _, key := range []string{"base", "A", "B", "C"} {
			b.Run(fmt.Sprintf("%s/%s", prog.Name, key), func(b *testing.B) {
				benchProgram(b, prog.Source, modes[key])
			})
		}
	}
}

// BenchmarkTable2 measures the register-class restriction columns
// (D = 7 caller-saved, E = 7 callee-saved).
func BenchmarkTable2(b *testing.B) {
	modes := map[string]Mode{"D": ModeD(), "E": ModeE()}
	for _, prog := range benchprog.All() {
		for _, key := range []string{"D", "E"} {
			b.Run(fmt.Sprintf("%s/%s", prog.Name, key), func(b *testing.B) {
				benchProgram(b, prog.Source, modes[key])
			})
		}
	}
}

// BenchmarkFigures runs the Figure 1-4 demonstrations (placement reports
// and per-path/per-frequency measurements).
func BenchmarkFigures(b *testing.B) {
	figs := map[string]func() (string, error){
		"fig1": experiments.Fig1,
		"fig2": experiments.Fig2,
		"fig3": experiments.Fig3,
		"fig4": experiments.Fig4,
	}
	for name, fn := range figs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSim measures raw simulator speed over compiled programs: the
// predecoded block-batched engine ("fast") against the per-instruction
// reference interpreter. All engines produce bit-identical
// Output/Stats/InstrCounts (see TestEnginesBitIdenticalOnSuite); this
// benchmark measures the speed gap the predecoding buys. The engines are
// pinned via sim.Options so the rows keep measuring the same engines
// across PRs.
func BenchmarkSim(b *testing.B) {
	benchSimEngines(b, sim.Options{}, []string{"fast", "ref"})
}

// BenchmarkSimProfile is BenchmarkSim with per-instruction profiling on —
// the configuration every profile-feedback training run pays for.
func BenchmarkSimProfile(b *testing.B) {
	benchSimEngines(b, sim.Options{Profile: true}, []string{"fast", "ref"})
}

func benchSimEngines(b *testing.B, opts sim.Options, engines []string) {
	for _, p := range compileBenchPrograms() {
		prog, err := Compile(p.Source, ModeC())
		if err != nil {
			b.Fatal(err)
		}
		for _, engine := range engines {
			run := sim.Run
			o := opts
			if engine == "ref" {
				run = sim.RunReference
			} else {
				o.Engine = engine
			}
			b.Run(fmt.Sprintf("%s/%s", p.Name, engine), func(b *testing.B) {
				var instrs int64
				for i := 0; i < b.N; i++ {
					res, err := run(prog.Code, o)
					if err != nil {
						b.Fatal(err)
					}
					instrs = res.Stats.Instrs
				}
				if elapsed := b.Elapsed(); elapsed > 0 {
					b.ReportMetric(float64(instrs)*float64(b.N)/elapsed.Seconds()/1e6, "Minstr/s")
				}
			})
		}
	}
}

// compileBenchPrograms are the compile-speed workloads: two real suite
// programs and the synthetic wide-call-graph program built for the pipeline.
func compileBenchPrograms() []benchprog.Benchmark {
	return []benchprog.Benchmark{
		*benchprog.Lookup("nim"),
		*benchprog.Lookup("uopt"),
		benchprog.Large(),
	}
}

// BenchmarkCompile measures end-to-end compilation speed (the paper reports
// the back-end cost of linked-Ucode compilation; this is our analogue), in
// both pipeline configurations. "parallel" is the default pipeline —
// wavefront allocation, concurrent codegen, warm front-end cache;
// "sequential" is the original single-threaded walk with the cache bypassed.
// Both run with the linkage validator off, so their numbers stay comparable
// across the validator's introduction; "parallel+validate" measures the
// default production configuration (validator on, injection disarmed).
// Compare with benchstat; the parallel columns only separate from the
// sequential ones when GOMAXPROCS > 1 (see README).
func BenchmarkCompile(b *testing.B) {
	for _, p := range compileBenchPrograms() {
		for _, variant := range []string{"sequential", "parallel", "parallel+validate"} {
			mode := ModeC()
			mode.Sequential = variant == "sequential"
			mode.Validate = variant == "parallel+validate"
			b.Run(fmt.Sprintf("%s/%s", p.Name, variant), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Compile(p.Source, mode); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkIncrementalRecompile measures the single-function-edit rebuild,
// the workload incremental recompilation exists for: each iteration makes
// a never-seen body edit to one function of the large suite program and
// rebuilds. "full" pays the whole pipeline (the new source misses every
// cache); "incremental" carries the state forward and replans only the
// summary-delta frontier. Compare the two interleaved, same session.
func BenchmarkIncrementalRecompile(b *testing.B) {
	base := benchprog.Large()
	mode := ModeC()
	names := definedFuncs(b, base.Source)
	victim := names[0]
	for _, n := range names {
		if n != "main" {
			victim = n
		}
	}
	uniq := 0
	edit := func() string {
		uniq++
		return bodyEdit(b, base.Source, victim, fmt.Sprintf("print(%d);", 500000+uniq))
	}

	// Edit synthesis re-lexes the source to splice the chunk; that is the
	// editor's cost, not the compiler's, so it runs off the clock in both
	// variants.
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			src := edit()
			b.StartTimer()
			if _, err := Compile(src, mode); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		res, err := pipeline.BuildIncremental(base.Source, mode, nil)
		if err != nil {
			b.Fatal(err)
		}
		st := res.State
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			src := edit()
			b.StartTimer()
			res, err := pipeline.BuildIncremental(src, mode, st)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Incremental {
				b.Fatalf("fell back to a full rebuild: %s", res.FallbackReason)
			}
			st = res.State
		}
	})
}

// BenchmarkCompileFrontend isolates the mode-independent prefix of the
// pipeline (parse → sema → lower → -O2). "cold" rebuilds from source every
// iteration; "cached" measures a front-end cache hit, i.e. the cost of deep-
// copying the frozen master module.
func BenchmarkCompileFrontend(b *testing.B) {
	for _, p := range compileBenchPrograms() {
		b.Run(p.Name+"/cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := front.Build(p.Source, true); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(p.Name+"/cached", func(b *testing.B) {
			if _, err := front.Module(p.Source, true, true); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := front.Module(p.Source, true, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompilePlan isolates register allocation (PlanModule): the
// wavefront-parallel walk against the sequential one. Live-range splitting
// rewrites the IR, so each iteration plans a fresh clone of a prebuilt
// master module; the clone cost is common to both variants.
func BenchmarkCompilePlan(b *testing.B) {
	for _, p := range compileBenchPrograms() {
		master, err := front.Build(p.Source, true)
		if err != nil {
			b.Fatal(err)
		}
		for _, variant := range []string{"sequential", "parallel"} {
			mode := ModeC()
			mode.Sequential = variant == "sequential"
			mode.Validate = false // isolate allocation: no worker panic containment
			b.Run(fmt.Sprintf("%s/%s", p.Name, variant), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.PlanModule(ir.CloneModule(master), mode)
				}
			})
		}
	}
}

// BenchmarkCompileCodegen isolates machine-code emission (Generate) over a
// fixed plan: concurrent per-function emission against module-order
// emission. Generate does not mutate the plan, so one plan serves all
// iterations.
func BenchmarkCompileCodegen(b *testing.B) {
	for _, p := range compileBenchPrograms() {
		for _, variant := range []string{"sequential", "parallel"} {
			mode := ModeC()
			mode.Sequential = variant == "sequential"
			mode.Validate = false // isolate emission: no worker panic containment
			master, err := front.Build(p.Source, true)
			if err != nil {
				b.Fatal(err)
			}
			plan := core.PlanModule(master, mode)
			b.Run(fmt.Sprintf("%s/%s", p.Name, variant), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := codegen.Generate(plan); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkInline measures what the procedure integrator buys on the
// BenchmarkSim workloads: each pair of rows compiles under mode C with
// profile feedback — inlining off against inlining on at the default
// budget — and attaches the paper metrics (cycles, save/restore traffic,
// linkage cycles) for benchstat comparison of the on/off columns.
func BenchmarkInline(b *testing.B) {
	for _, p := range compileBenchPrograms() {
		for _, variant := range []string{"off", "on"} {
			b.Run(fmt.Sprintf("%s/%s", p.Name, variant), func(b *testing.B) {
				var prog *Program
				var err error
				if variant == "on" {
					prog, err = compileInlined(p.Source, ModeC())
				} else {
					prog, err = compileProfiled(p.Source, ModeC())
				}
				if err != nil {
					b.Fatalf("compile: %v", err)
				}
				var last *RunResult
				for i := 0; i < b.N; i++ {
					res, err := prog.Run()
					if err != nil {
						b.Fatalf("run: %v", err)
					}
					last = res
				}
				if last != nil {
					b.ReportMetric(float64(last.Stats.Cycles), "paper-cycles")
					b.ReportMetric(float64(last.Stats.SaveRestoreLS()), "paper-saverestore")
					b.ReportMetric(float64(last.Stats.LinkageCycles), "paper-linkage")
				}
			})
		}
	}
}

// BenchmarkHeightSweep is the ablation the paper's analysis calls for: "the
// relevant parameter is the height of the call graph". It builds synthetic
// call chains of growing depth, with register pressure at every level, and
// reports the save/restore traffic of the two restricted register classes.
// As the chain outgrows the register file, the callee-saved configuration's
// ability to migrate saves up the graph becomes the deciding factor.
func BenchmarkHeightSweep(b *testing.B) {
	for _, depth := range []int{2, 6, 12} {
		src := experiments.ChainProgram(depth, 3)
		for key, mode := range map[string]Mode{"D": ModeD(), "E": ModeE()} {
			b.Run(fmt.Sprintf("depth%d/%s", depth, key), func(b *testing.B) {
				benchProgram(b, src, mode)
			})
		}
	}
}

// BenchmarkConvention snapshots the calling-convention auto-tuner's
// headline into the benchjson trajectory: a sampled sweep over a 3-program
// workload selects a winner, and the default convention and that winner are
// then measured side by side so successive BENCH_*.json files show whether
// the swept partition keeps its edge as the compiler evolves.
func BenchmarkConvention(b *testing.B) {
	var wl []experiments.Workload
	for _, p := range benchprog.All()[:3] {
		wl = append(wl, experiments.Workload{Name: p.Name, Source: p.Source})
	}
	rep, err := experiments.Sweep(experiments.SampleConventions(8), wl, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range []struct {
		key string
		row *experiments.SweepRow
	}{{"default", rep.Base}, {"winner", rep.Winner()}} {
		b.Run(r.key, func(b *testing.B) {
			var cycles, saveLS, linkage int64
			for i := 0; i < b.N; i++ {
				cycles, saveLS, linkage = 0, 0, 0
				for _, w := range wl {
					prog, err := Compile(w.Source, ModeConv(r.row.Cfg))
					if err != nil {
						b.Fatalf("%s: %v", w.Name, err)
					}
					res, err := prog.Run()
					if err != nil {
						b.Fatalf("%s: %v", w.Name, err)
					}
					cycles += res.Stats.Cycles
					saveLS += res.Stats.SaveRestoreLS()
					linkage += res.Stats.LinkageCycles
				}
			}
			b.ReportMetric(float64(cycles), "paper-cycles")
			b.ReportMetric(float64(saveLS), "paper-saverestore")
			b.ReportMetric(float64(linkage), "conv-linkage")
		})
	}
}
