package chow88

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"chow88/internal/benchprog"
	"chow88/internal/incr"
	"chow88/internal/pipeline"
	"chow88/internal/pixie"
	"chow88/internal/sim"
)

// The procedure integrator's contract: integrated programs behave exactly
// like their originals (same Output on every engine), pass the linkage
// validator cleanly under every mode, stay byte-deterministic across the
// parallel and sequential pipelines, and — the point of the exercise —
// actually run faster under mode C with profile feedback.

// TestInlineCleanCorpus compiles the whole suite under every measurement
// mode with inlining on and Strict set: a single check violation, demotion
// or discarded integration fails the test.
func TestInlineCleanCorpus(t *testing.T) {
	progs := benchprog.All()
	if testing.Short() {
		progs = progs[:4]
	}
	for _, bp := range progs {
		for _, mode := range allModes() {
			mode.Inline = true
			mode.Strict = true
			label := bp.Name + "/" + mode.Name
			prog, err := Compile(bp.Source, mode)
			if err != nil {
				t.Fatalf("%s: inlined compile: %v", label, err)
			}
			if len(prog.Demotions) != 0 {
				t.Fatalf("%s: inlined compile degraded: %+v", label, prog.Demotions)
			}
			if prog.Inline == nil {
				t.Fatalf("%s: no inline report (integration discarded?)", label)
			}
		}
	}
}

// TestInlineDifferentialThreeEngines proves inlined programs produce
// byte-identical Output to their non-inlined builds, on the fast engine
// and the reference oracle.
func TestInlineDifferentialThreeEngines(t *testing.T) {
	progs := benchprog.All()
	if testing.Short() {
		progs = progs[:4]
	}
	for _, bp := range progs {
		base, err := Compile(bp.Source, ModeC())
		if err != nil {
			t.Fatalf("%s: compile: %v", bp.Name, err)
		}
		want, err := base.Run()
		if err != nil {
			t.Fatalf("%s: run: %v", bp.Name, err)
		}
		inl, err := compileInlined(bp.Source, ModeC())
		if err != nil {
			t.Fatalf("%s: inlined compile: %v", bp.Name, err)
		}
		res, err := requireEnginesAgree(t, bp.Name+"/inlined", inl, sim.Options{})
		if err != nil {
			t.Fatalf("%s: inlined run: %v", bp.Name, err)
		}
		if !reflect.DeepEqual(res.Output, want.Output) {
			t.Fatalf("%s: inlined output diverged\n got: %v\nwant: %v", bp.Name, res.Output, want.Output)
		}
	}
}

// TestInlineParallelSequentialDeterminism: the integrated build must be
// byte-identical whichever pipeline compiled it.
func TestInlineParallelSequentialDeterminism(t *testing.T) {
	progs := benchprog.All()
	if testing.Short() {
		progs = progs[:4]
	}
	for _, bp := range progs {
		par := ModeC()
		par.Inline = true
		seq := par
		seq.Sequential = true
		p1, err := Compile(bp.Source, par)
		if err != nil {
			t.Fatalf("%s: parallel: %v", bp.Name, err)
		}
		p2, err := Compile(bp.Source, seq)
		if err != nil {
			t.Fatalf("%s: sequential: %v", bp.Name, err)
		}
		if p1.Disassemble() != p2.Disassemble() {
			t.Fatalf("%s: parallel and sequential inlined builds diverge", bp.Name)
		}
		if !reflect.DeepEqual(p1.Code, p2.Code) {
			t.Fatalf("%s: inlined images diverge beyond the disassembly", bp.Name)
		}
	}
}

// TestInlineCyclesWinModeC is the acceptance bar: under mode C with
// profile feedback, inlining must reduce cycles on at least 6 of the 13
// programs and regress none by more than 2%. The linkage attribution must
// show where the cycles went: call-linkage cycles strictly drop whenever
// sites were inlined.
func TestInlineCyclesWinModeC(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite profile-guided measurement")
	}
	improved, regressed := 0, 0
	for _, bp := range benchprog.All() {
		ipra, err := compileProfiled(bp.Source, ModeC())
		if err != nil {
			t.Fatalf("%s: profiled: %v", bp.Name, err)
		}
		ipraRes, err := ipra.Run()
		if err != nil {
			t.Fatalf("%s: profiled run: %v", bp.Name, err)
		}
		inl, err := compileInlined(bp.Source, ModeC())
		if err != nil {
			t.Fatalf("%s: inlined: %v", bp.Name, err)
		}
		inlRes, err := inl.Run()
		if err != nil {
			t.Fatalf("%s: inlined run: %v", bp.Name, err)
		}
		if !reflect.DeepEqual(inlRes.Output, ipraRes.Output) {
			t.Fatalf("%s: inlined output diverged", bp.Name)
		}
		ic, nc := ipraRes.Stats.Cycles, inlRes.Stats.Cycles
		switch {
		case nc < ic:
			improved++
		case nc > ic:
			regressed++
			if pct := -pixie.PercentReduction(ic, nc); pct > 2.0 {
				t.Errorf("%s: inlining regressed cycles by %.2f%% (%d -> %d)", bp.Name, pct, ic, nc)
			}
		}
		if inl.Inline != nil && inl.Inline.SitesInlined > 0 &&
			inlRes.Stats.LinkageCycles >= ipraRes.Stats.LinkageCycles {
			t.Errorf("%s: %d sites inlined but linkage cycles did not drop (%d -> %d)",
				bp.Name, inl.Inline.SitesInlined, ipraRes.Stats.LinkageCycles, inlRes.Stats.LinkageCycles)
		}
	}
	if improved < 6 {
		t.Errorf("inlining improved only %d programs, want >= 6", improved)
	}
	t.Logf("inlining: %d improved, %d regressed", improved, regressed)
}

// TestInlineModeSkewFallback: inlining rewrites the module after the front
// end, so a statefile's chunk mapping can never describe an inlined
// program. An inline-mode incremental build is therefore refused outright —
// with the usage-class RequestError that Request.Validate gives the same
// combination — whether or not prior state exists, and no statefile is
// written. (The inline axis of the mode fingerprint itself stays covered
// by internal/incr's fingerprint test.)
func TestInlineModeSkewFallback(t *testing.T) {
	b := benchprog.Lookup("stanford")

	res, err := pipeline.BuildIncremental(b.Source, ModeC(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.State == nil {
		t.Fatal("clean non-inlined build captured no state")
	}

	inlMode := ModeC()
	inlMode.Inline = true
	for i, st := range []*incr.State{nil, res.State} {
		_, err := pipeline.BuildIncremental(b.Source, inlMode, st)
		var re *pipeline.RequestError
		if !errors.As(err, &re) {
			t.Fatalf("inline-mode incremental build %d: err %v, want a RequestError", i, err)
		}
		if code, _ := ClassifyError(err); code != ExitUsage {
			t.Errorf("inline-mode incremental build %d classified %d, want %d", i, code, ExitUsage)
		}
	}

	path := filepath.Join(t.TempDir(), "inl.state")
	if _, err := CompileIncremental(b.Source, inlMode, path); err == nil {
		t.Fatal("CompileIncremental accepted an inline mode")
	}
	if _, err := os.Stat(path); err == nil {
		t.Error("refused inline-mode build wrote a statefile")
	}
}
