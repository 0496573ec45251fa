// Package chow88 reproduces Fred Chow's PLDI 1988 paper "Minimizing
// Register Usage Penalty at Procedure Calls": one-pass inter-procedural
// register allocation layered on priority-based coloring, and
// shrink-wrapping of callee-saved register saves/restores.
//
// The package compiles programs in CW — a small, call-intensive, C-like
// experiment language — to code for a MIPS R2000-like virtual machine, under
// the compilation modes the paper measures:
//
//	ModeBase  -O2, shrink-wrap off (the baseline of every comparison)
//	ModeA     -O2, shrink-wrap on            (Table 1, column A)
//	ModeB     -O3 (IPRA), shrink-wrap off    (Table 1, column B)
//	ModeC     -O3 (IPRA), shrink-wrap on     (Table 1, column C)
//	ModeD     ModeC with 7 caller-saved regs (Table 2, column D)
//	ModeE     ModeC with 7 callee-saved regs (Table 2, column E)
//
// Running the compiled program on the built-in simulator yields pixie-style
// statistics (cycles, scalar loads/stores, calls) from which the paper's
// tables are regenerated.
//
// Quick start (Compile is the single-source shorthand for Build, which
// also links separate units, trains profile feedback and reuses
// incremental statefiles):
//
//	prog, err := chow88.Compile(src, chow88.ModeC())
//	res, err := prog.Run()
//	fmt.Println(res.Output, res.Stats.Cycles)
package chow88

import (
	"context"

	"chow88/internal/core"
	"chow88/internal/explain"
	"chow88/internal/interp"
	"chow88/internal/ir"
	"chow88/internal/mcode"
	"chow88/internal/obs"
	"chow88/internal/parser"
	"chow88/internal/pipeline"
	"chow88/internal/pixie"
	"chow88/internal/sema"
	"chow88/internal/sim"
)

// Mode selects a compilation configuration. Use the Mode* constructors.
type Mode = core.Mode

// The paper's measurement modes, plus ModeConv — mode C under an arbitrary
// register convention (see internal/mach.ParseConvention / Enumerate for
// building one).
var (
	ModeBase = core.ModeBase
	ModeA    = core.ModeA
	ModeB    = core.ModeB
	ModeC    = core.ModeC
	ModeD    = core.ModeD
	ModeE    = core.ModeE
	ModeConv = core.ModeConv
)

// Stats re-exports the pixie trace counters.
type Stats = pixie.Stats

// Program is a compiled CW program.
type Program struct {
	// Mode the program was compiled under.
	Mode Mode
	// Module is the optimized IR.
	Module *ir.Module
	// Plan is the register-allocation decision for every function.
	Plan *core.ProgramPlan
	// Code is the linked machine-code image.
	Code *mcode.Program
	// Report carries the compilation's phase timings and allocator metrics
	// when an obs session is active (obs.Begin); nil otherwise.
	Report *obs.CompileReport
	// Demotions records every graceful-degradation intervention taken while
	// compiling (procedures demoted to the open convention or replanned
	// after a validation failure or recovered worker panic). Empty for a
	// clean compile. Also available on Report when one is attached.
	Demotions []obs.Demotion
	// Inline is the procedure integrator's report when the mode enabled
	// inlining and the integrated build survived validation; nil otherwise
	// (including when a failed inlined build was discarded — see the
	// "discard-inlining" Demotion).
	Inline *obs.InlineReport
}

// Request is one compilation: the source units, the mode, and the two
// settings beyond a single-source build — profile feedback (Profile) and
// an incremental statefile (StatePath). See pipeline.Request.
type Request = pipeline.Request

// Build compiles req; it is the one entry point every compile setting goes
// through.
//
// Several Units are linked into one whole program first (§7 of the paper:
// extern declarations resolve against the defining unit, so the one-pass
// inter-procedural allocator sees every body); a single unit compiles
// as-is.
//
// The pipeline is parallel by default: the front end (through the -O2
// optimizer) is shared across modes through internal/front's source-keyed
// cache, register allocation proceeds wavefront-parallel over the call
// graph, and machine code is emitted per function concurrently. Output is
// byte-identical to the sequential pipeline, which remains reachable via
// Mode.Sequential.
//
// Under Mode.Validate (on in every mode constructor) the linkage-invariant
// validator runs after planning and after code generation; a procedure
// whose plan fails validation is demoted to the safe open convention and
// the affected call-graph slice replanned, with the interventions recorded
// on Program.Demotions. Mode.Strict turns any such repair into an error.
//
// Profile implements the paper's stated future work: "The feedback of
// profile data to the register allocator is a capability that we plan to
// add in the future" (§8). A training build under the baseline mode runs
// once recording per-basic-block execution counts, which replace the
// static 10^loop-depth estimate before the final build; with Mode.Inline
// set the procedure integrator ranks call sites by those measurements.
// The compile report then carries the training window separately
// (CompileReport.Training).
//
// StatePath reuses the previous build recorded in that statefile: only the
// summary-delta frontier of the edit is replanned and re-emitted, and the
// output is byte-identical to a full build. A missing, corrupt,
// version-skewed or mode-mismatched statefile degrades to a full
// recompile, never to a wrong program; the statefile is rewritten to
// describe the new build when possible.
//
// Refused combinations (no units, Profile or Mode.Inline with StatePath)
// fail before any work with a usage-class *pipeline.RequestError. ctx is
// checked at pipeline stage boundaries (the chowd daemon's per-request
// deadlines are built on it); a nil ctx means Background.
func Build(ctx context.Context, req Request) (*Program, error) {
	s := obs.Current()
	snap := s.Snap()
	var sp obs.Span
	if s != nil {
		sp = s.Span(obs.PhaseCompile, "Compile "+req.Mode.Name)
	}
	res, err := pipeline.Build(ctx, req)
	sp.End()
	if err != nil {
		return nil, err
	}
	// Plan.Module, not the front end's module: an inlined build that was
	// discarded compiled the pristine clone.
	p := &Program{Mode: req.Mode, Module: res.Plan.Module, Plan: res.Plan, Code: res.Prog, Demotions: res.Demotions, Inline: res.Plan.Inline}
	if s != nil {
		if res.TrainedAt != nil {
			snap = *res.TrainedAt
		}
		p.Report = &obs.CompileReport{Report: *s.ReportSince(snap), Training: res.Training, Demotions: res.Demotions}
	}
	// Snapshot the active decision journal onto the report, so chowcc -json
	// and the explaindiff artifacts fall out of the ordinary report path. On
	// the incremental path it covers only the replanned frontier: reused
	// plans and code were never re-decided this round.
	if j := explain.Current(); j != nil && p.Report != nil {
		p.Report.Explain = j.Artifact()
	}
	return p, nil
}

// Compile compiles one CW source under the given mode: Build of a
// single-unit Request.
func Compile(src string, mode Mode) (*Program, error) {
	return Build(context.Background(), Request{Units: []string{src}, Mode: mode})
}

// CompileIncremental compiles src like Compile, reusing the previous build
// recorded in the statefile at statePath: Build of a single-unit Request
// with StatePath set.
func CompileIncremental(src string, mode Mode, statePath string) (*Program, error) {
	return Build(context.Background(), Request{Units: []string{src}, Mode: mode, StatePath: statePath})
}

// RunResult is the outcome of executing a compiled program.
type RunResult struct {
	Output []int64
	Stats  Stats
	// Engine names the simulator engine that executed the run ("fast" or
	// "reference"); FallbackReason explains a reference run the fast engine
	// declined (see sim.Result).
	Engine         string
	FallbackReason string
	// Report carries the run's metrics window when an obs session is
	// active; nil otherwise.
	Report *obs.RunReport
}

// RunOptions bound simulator resource use.
type RunOptions = sim.Options

// Run executes the program on the virtual machine with default limits.
func (p *Program) Run() (*RunResult, error) { return p.RunWith(RunOptions{}) }

// RunWith executes the program with explicit limits.
func (p *Program) RunWith(opts RunOptions) (*RunResult, error) {
	res, err := sim.Run(p.Code, opts)
	if res == nil {
		return nil, err
	}
	return &RunResult{
		Output: res.Output, Stats: res.Stats,
		Engine: res.Engine, FallbackReason: res.FallbackReason,
		Report: res.Report,
	}, err
}

// Disassemble renders the generated machine code.
func (p *Program) Disassemble() string { return p.Code.Disassemble() }

// Interpret runs src on the reference AST interpreter, the oracle the
// compiled implementation is differentially tested against.
func Interpret(src string) ([]int64, error) {
	tree, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := sema.Check(tree)
	if err != nil {
		return nil, err
	}
	res, err := interp.Run(info, interp.Options{})
	if res == nil {
		return nil, err
	}
	return res.Output, err
}
