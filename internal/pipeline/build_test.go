package pipeline_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chow88/internal/benchprog"
	"chow88/internal/classify"
	"chow88/internal/core"
	"chow88/internal/front"
	"chow88/internal/pipeline"
	"chow88/internal/sim"
)

const (
	unitLib = `
func square(x int) int { return x * x; }
func cube(x int) int { return square(x) * x; }
`
	unitMain = `
extern func square(x int) int;
extern func cube(x int) int;

func main() {
    print(square(5));
    print(cube(3));
}
`
	// wholeProgram is unitLib and unitMain written as one unit, in the
	// declaration order linking produces.
	wholeProgram = `
func square(x int) int { return x * x; }
func cube(x int) int { return square(x) * x; }

func main() {
    print(square(5));
    print(cube(3));
}
`
)

func paperModes() []core.Mode {
	return []core.Mode{core.ModeBase(), core.ModeA(), core.ModeB(), core.ModeC(), core.ModeD(), core.ModeE()}
}

func inlineC() core.Mode {
	m := core.ModeC()
	m.Inline = true
	return m
}

func run(t *testing.T, res *pipeline.Result) *sim.Result {
	t.Helper()
	out, err := sim.Run(res.Prog, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestValidateMatrix: every refused combination is a *RequestError that
// classifies as a usage error (exit 2, HTTP 400) and stops Build before
// any work; every accepted combination builds.
func TestValidateMatrix(t *testing.T) {
	state := filepath.Join(t.TempDir(), "refused.state")
	refused := map[string]pipeline.Request{
		"no units":               {Mode: core.ModeC()},
		"no units, profile":      {Mode: core.ModeC(), Profile: true},
		"profile + statefile":    {Units: []string{wholeProgram}, Mode: core.ModeC(), Profile: true, StatePath: state},
		"inline + statefile":     {Units: []string{wholeProgram}, Mode: inlineC(), StatePath: state},
		"profile+inline + state": {Units: []string{wholeProgram}, Mode: inlineC(), Profile: true, StatePath: state},
	}
	for name, req := range refused {
		err := req.Validate()
		var re *pipeline.RequestError
		if !errors.As(err, &re) {
			t.Errorf("%s: Validate = %v, want a *RequestError", name, err)
			continue
		}
		code, label := classify.Error(err)
		if code != classify.ExitUsage || classify.HTTPStatus(code) != 400 {
			t.Errorf("%s: classified %d (%s), HTTP %d; want exit %d, HTTP 400",
				name, code, label, classify.HTTPStatus(code), classify.ExitUsage)
		}
		if _, berr := pipeline.Build(context.Background(), req); !errors.Is(berr, err) {
			t.Errorf("%s: Build = %v, want Validate's %v", name, berr, err)
		}
	}
	if _, err := os.Stat(state); err == nil {
		t.Error("a refused request wrote its statefile")
	}

	dir := t.TempDir()
	accepted := map[string]pipeline.Request{
		"one unit":              {Units: []string{wholeProgram}, Mode: core.ModeC()},
		"two units":             {Units: []string{unitLib, unitMain}, Mode: core.ModeC()},
		"profile":               {Units: []string{wholeProgram}, Mode: core.ModeC(), Profile: true},
		"profile, two units":    {Units: []string{unitLib, unitMain}, Mode: core.ModeC(), Profile: true},
		"profile + inline":      {Units: []string{wholeProgram}, Mode: inlineC(), Profile: true},
		"inline, static counts": {Units: []string{wholeProgram}, Mode: inlineC()},
		"statefile":             {Units: []string{wholeProgram}, Mode: core.ModeC(), StatePath: filepath.Join(dir, "a.state")},
		"statefile, two units":  {Units: []string{unitLib, unitMain}, Mode: core.ModeC(), StatePath: filepath.Join(dir, "b.state")},
	}
	for name, req := range accepted {
		if err := req.Validate(); err != nil {
			t.Errorf("%s: Validate = %v", name, err)
			continue
		}
		res, err := pipeline.Build(context.Background(), req)
		if err != nil {
			t.Errorf("%s: Build = %v", name, err)
			continue
		}
		if got := run(t, res).Output; len(got) != 2 || got[0] != 25 || got[1] != 27 {
			t.Errorf("%s: output %v, want [25 27]", name, got)
		}
	}
}

// TestSingleUnitMatchesBuildCtx: a one-unit Build is exactly the front end
// plus BuildCtx — no link or format round trip — over the suite and the
// paper's six modes.
func TestSingleUnitMatchesBuildCtx(t *testing.T) {
	for _, b := range benchprog.All() {
		for _, mode := range paperModes() {
			res, err := pipeline.Build(context.Background(), pipeline.Request{Units: []string{b.Source}, Mode: mode})
			if err != nil {
				t.Fatalf("%s [%s]: %v", b.Name, mode.Name, err)
			}
			mod, err := front.Module(b.Source, mode.Optimize, !mode.Sequential)
			if err != nil {
				t.Fatal(err)
			}
			_, code, _, err := pipeline.BuildCtx(context.Background(), mod, mode)
			if err != nil {
				t.Fatal(err)
			}
			if res.Prog.Disassemble() != code.Disassemble() {
				t.Errorf("%s [%s]: Build differs from front.Module + BuildCtx", b.Name, mode.Name)
			}
		}
	}
}

// TestTwoUnitLinkMatchesOneUnit: linking two units (§7) compiles to the
// same image as the program written as one unit, under every paper mode.
func TestTwoUnitLinkMatchesOneUnit(t *testing.T) {
	for _, mode := range paperModes() {
		linked, err := pipeline.Build(context.Background(), pipeline.Request{Units: []string{unitLib, unitMain}, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		whole, err := pipeline.Build(context.Background(), pipeline.Request{Units: []string{wholeProgram}, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if linked.Prog.Disassemble() != whole.Prog.Disassemble() {
			t.Errorf("[%s] two-unit link differs from the one-unit program", mode.Name)
		}
	}
}

// TestProfileGolden pins Profile builds to the cycle counts the
// profile-feedback path produced before it moved into Build: the training
// build, the profiling run, the write-back and the final build (with and
// without the procedure integrator) are unchanged.
func TestProfileGolden(t *testing.T) {
	golden := []struct {
		prog   string
		mode   core.Mode
		cycles int64
	}{
		{"nim", core.ModeC(), 70122960},
		{"nim", inlineC(), 68668280},
		{"stanford", core.ModeC(), 1198816},
		{"stanford", inlineC(), 1181825},
		{"stanford", core.ModeE(), 1312172},
	}
	for _, g := range golden {
		src := benchprog.Lookup(g.prog).Source
		res, err := pipeline.Build(context.Background(), pipeline.Request{Units: []string{src}, Mode: g.mode, Profile: true})
		if err != nil {
			t.Fatalf("%s [%s]: %v", g.prog, g.mode.Name, err)
		}
		if got := run(t, res).Stats.Cycles; got != g.cycles {
			t.Errorf("%s [%s inline=%v]: %d cycles, want %d", g.prog, g.mode.Name, g.mode.Inline, got, g.cycles)
		}
	}
}

// TestStatePathReuse: a first StatePath build falls back for lack of
// state and writes the statefile; the second reuses it.
func TestStatePathReuse(t *testing.T) {
	src := benchprog.Lookup("stanford").Source
	req := pipeline.Request{Units: []string{src}, Mode: core.ModeC(), StatePath: filepath.Join(t.TempDir(), "s.state")}
	first, err := pipeline.Build(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Incremental || first.FallbackReason != "no previous state" || first.SaveErr != nil {
		t.Fatalf("first build: incremental=%v reason=%q save=%v", first.Incremental, first.FallbackReason, first.SaveErr)
	}
	second, err := pipeline.Build(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Incremental || second.Reused < 1 {
		t.Fatalf("second build: incremental=%v reused=%d (reason %q)", second.Incremental, second.Reused, second.FallbackReason)
	}
	if second.Prog.Disassemble() != first.Prog.Disassemble() {
		t.Error("incremental rebuild differs from the full build")
	}
}

// TestCorruptStatefile: an unreadable statefile degrades to a full build
// that names the rejection, and is rewritten for the next round.
func TestCorruptStatefile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.state")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	req := pipeline.Request{Units: []string{wholeProgram}, Mode: core.ModeC(), StatePath: path}
	res, err := pipeline.Build(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incremental || !strings.HasPrefix(res.FallbackReason, "statefile rejected: ") {
		t.Fatalf("incremental=%v reason=%q, want a statefile rejection", res.Incremental, res.FallbackReason)
	}
	again, err := pipeline.Build(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Incremental {
		t.Errorf("rewritten statefile not reused (reason %q)", again.FallbackReason)
	}
}

// TestCanceledBuild: a canceled ctx stops every kind of request with
// ErrCanceled.
func TestCanceledBuild(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, req := range map[string]pipeline.Request{
		"plain":     {Units: []string{wholeProgram}, Mode: core.ModeC()},
		"two units": {Units: []string{unitLib, unitMain}, Mode: core.ModeC()},
		"profile":   {Units: []string{wholeProgram}, Mode: core.ModeC(), Profile: true},
		"statefile": {Units: []string{wholeProgram}, Mode: core.ModeC(), StatePath: filepath.Join(t.TempDir(), "x.state")},
	} {
		if _, err := pipeline.Build(ctx, req); !errors.Is(err, pipeline.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err %v, want ErrCanceled wrapping context.Canceled", name, err)
		}
	}
}

// TestApplyProfileMismatch: counts from another program's image are an
// error, not a crash.
func TestApplyProfileMismatch(t *testing.T) {
	mod, err := front.Module(wholeProgram, true, true)
	if err != nil {
		t.Fatal(err)
	}
	code, counts, err := pipeline.Train(context.Background(), mod, core.ModeC())
	if err != nil {
		t.Fatal(err)
	}
	other, err := front.Module(benchprog.Lookup("stanford").Source, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeline.ApplyProfile(other, code, counts); err == nil {
		t.Error("ApplyProfile accepted another program's image")
	}
	if err := pipeline.ApplyProfile(mod, code, &sim.Result{}); err == nil {
		t.Error("ApplyProfile accepted a run without counts")
	}
}
