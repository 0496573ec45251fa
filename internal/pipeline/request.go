package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io/fs"

	"chow88/internal/ast"
	"chow88/internal/core"
	"chow88/internal/explain"
	"chow88/internal/front"
	"chow88/internal/incr"
	"chow88/internal/ir"
	"chow88/internal/mcode"
	"chow88/internal/obs"
	"chow88/internal/sim"
)

// Request is one compilation: the program's source units, the mode, and
// the two settings that go beyond a single-source build.
type Request struct {
	// Units are the program's source units. Several units are linked into
	// one whole program first (§7 of the paper, LinkUnits); a single unit
	// compiles as-is.
	Units []string
	Mode  core.Mode
	// Profile runs a training build under the baseline mode once,
	// attaches its measured block frequencies to the IR (replacing the
	// static 10^loop-depth estimate — the paper's §8 future work) and
	// then builds under Mode. With Mode.Inline set, the procedure
	// integrator ranks call sites by those measurements.
	Profile bool
	// StatePath names an incremental statefile: the previous build it
	// records is reused as far as the edit allows (see BuildIncremental),
	// and the file is rewritten to describe this build. A missing file
	// means a first build.
	StatePath string
}

// RequestError is a Request whose settings cannot be combined. It is
// raised before any compile work, by Validate only.
type RequestError struct {
	Reason string
}

func (e *RequestError) Error() string { return "request: " + e.Reason }

var (
	errNoUnits      = &RequestError{Reason: "no source units"}
	errProfileState = &RequestError{Reason: "profile feedback cannot be combined with an incremental statefile"}
	// Inlining rewrites the module after the front end, so a statefile's
	// chunk-to-function correspondence would not describe the compiled
	// program.
	errInlineState = &RequestError{Reason: "inlining cannot be combined with an incremental statefile"}
)

// Validate refuses the combinations no build can honour, as a
// *RequestError.
func (r Request) Validate() error {
	switch {
	case len(r.Units) == 0:
		return errNoUnits
	case r.Profile && r.StatePath != "":
		return errProfileState
	case r.Mode.Inline && r.StatePath != "":
		return errInlineState
	}
	return nil
}

// Result is a build's outcome.
type Result struct {
	Plan *core.ProgramPlan
	Prog *mcode.Program
	// Demotions from the degradation ladder (always empty on the
	// incremental path, which does not degrade — it falls back).
	Demotions []obs.Demotion

	// Training is the obs window of a Profile request's training build
	// and run; TrainedAt closes it, so a report since TrainedAt covers the
	// final build alone. Both are nil without Profile or without an
	// active obs session.
	Training  *obs.Report
	TrainedAt *obs.Snapshot

	// State describes this build for the next incremental round; nil when
	// none could be captured.
	State *incr.State
	// Incremental reports whether the incremental path was taken;
	// FallbackReason explains a full rebuild ("no previous state" on a
	// first build, "statefile rejected: …" for an unreadable statefile),
	// empty otherwise.
	Incremental    bool
	FallbackReason string
	// Replanned/Reused count defined functions on the incremental path.
	Replanned, Reused int
	// SaveErr is the failure to rewrite a StatePath statefile. It is not
	// fatal: it only costs the next round its head start.
	SaveErr error
}

// Build compiles req: it links the units, runs the profile training build
// when asked, and either builds against the statefile or runs BuildCtx on
// the front end's module. ctx is checked at stage boundaries (see
// BuildCtx); a nil ctx means Background.
func Build(ctx context.Context, req Request) (*Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	s := obs.Current()
	var snap obs.Snapshot
	if req.Profile {
		snap = s.Snap()
	}
	src := req.Units[0]
	if len(req.Units) > 1 {
		linked, err := LinkUnits(req.Units...)
		if err != nil {
			return nil, err
		}
		// Formatting is deterministic, so unedited units hash identically
		// across incremental rounds.
		src = ast.Format(linked)
	}
	if req.StatePath != "" {
		return buildStateful(ctx, src, req.Mode, req.StatePath)
	}
	mod, err := front.Module(src, req.Mode.Optimize, !req.Mode.Sequential)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	if req.Profile {
		code, run, err := Train(ctx, mod, req.Mode)
		if err != nil {
			return nil, err
		}
		if err := ApplyProfile(mod, code, run); err != nil {
			return nil, err
		}
		// The training window closes here; the final build reports
		// separately. The journal restarts too: the training build's
		// decisions describe the baseline throwaway, not the program being
		// shipped.
		explain.Current().Reset()
		if s != nil {
			end := s.Snap()
			res.Training, res.TrainedAt = s.ReportSince(snap), &end
		}
	}
	res.Plan, res.Prog, res.Demotions, err = BuildCtx(ctx, mod, req.Mode)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// buildStateful is Build against the statefile at path: load it (any
// load failure means "no previous state"), build incrementally and save
// the new state.
func buildStateful(ctx context.Context, src string, mode core.Mode, path string) (*Result, error) {
	st, lerr := incr.Load(path)
	res, err := buildIncremental(ctx, src, mode, st)
	if err != nil {
		return nil, err
	}
	if lerr != nil && !errors.Is(lerr, fs.ErrNotExist) {
		res.FallbackReason = "statefile rejected: " + lerr.Error()
	}
	if res.State != nil {
		res.SaveErr = res.State.Save(path)
	}
	return res, nil
}

// Train is the profile-feedback training step: it builds mod under the
// baseline mode carrying mode's Optimize, ForceOpen, Validate and Strict
// settings, and runs the code once recording per-instruction execution
// counts. The training build never inlines: it exists to measure the
// program's call structure, which inlining would erase. Block counts do
// not depend on the allocation, so one training run serves any final
// mode.
func Train(ctx context.Context, mod *ir.Module, mode core.Mode) (*mcode.Program, *sim.Result, error) {
	train := core.ModeBase()
	train.Optimize = mode.Optimize
	train.ForceOpen = mode.ForceOpen
	train.Validate = mode.Validate
	train.Strict = mode.Strict
	_, code, _, err := BuildCtx(ctx, mod, train)
	if err != nil {
		return nil, nil, fmt.Errorf("training build: %w", err)
	}
	res, err := sim.Run(code, sim.Options{Profile: true})
	if err != nil {
		return nil, nil, fmt.Errorf("training run: %w", err)
	}
	return code, res, nil
}

// ApplyProfile folds a profiling run's per-instruction execution counts back
// onto the IR module the code was generated from (or a fresh front-end copy
// of it): each basic block receives the execution count of its first
// instruction. Block identities must match the image's.
func ApplyProfile(mod *ir.Module, code *mcode.Program, res *sim.Result) error {
	if res.InstrCounts == nil {
		return fmt.Errorf("profile: run was not executed with Profile enabled")
	}
	for _, fi := range code.Funcs {
		if fi.Extern {
			continue
		}
		f := mod.Lookup(fi.Name)
		if f == nil {
			return fmt.Errorf("profile: image function %s not in module", fi.Name)
		}
		byID := make(map[int]*ir.Block, len(f.Blocks))
		for _, b := range f.Blocks {
			byID[b.ID] = b
		}
		for _, span := range fi.Blocks {
			b, ok := byID[span.BlockID]
			if !ok {
				return fmt.Errorf("profile: %s has no block %d", fi.Name, span.BlockID)
			}
			if span.Start < len(res.InstrCounts) {
				b.SetProfile(res.InstrCounts[span.Start])
			}
		}
	}
	return nil
}
