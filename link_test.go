package chow88

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"chow88/internal/ast"
	"chow88/internal/parser"
	"chow88/internal/pipeline"
)

// compileUnits is Build of a multi-unit Request: the units are linked (§7)
// and compiled as one whole program.
func compileUnits(mode Mode, srcs ...string) (*Program, error) {
	return Build(context.Background(), Request{Units: srcs, Mode: mode})
}

// compileSeparate compiles the units without cross-unit knowledge, the
// paper's separate-compilation regime: every function another unit imports
// (extern) is forced open, so its callers must assume the default linkage.
// The units still share one executable image (the calls must resolve
// somewhere), making the open/closed difference measurable: same program,
// same image, different allocator knowledge.
func compileSeparate(mode Mode, srcs ...string) (*Program, error) {
	seen := map[string]bool{}
	for _, src := range srcs {
		unit, err := parser.Parse(src)
		if err != nil {
			return nil, err
		}
		for _, d := range unit.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Extern && !seen[fd.Name] {
				seen[fd.Name] = true
				mode.ForceOpen = append(mode.ForceOpen, fd.Name)
			}
		}
	}
	return compileUnits(mode, srcs...)
}

const unitMath = `
func square(x int) int { return x * x; }
func cube(x int) int { return square(x) * x; }
`

const unitMain = `
extern func square(x int) int;
extern func cube(x int) int;

func main() {
    print(square(5));
    print(cube(3));
}
`

// TestLinkUnits: cross-unit extern declarations resolve against defining
// units (§7), and the linked whole program allocates inter-procedurally —
// the imported functions become closed.
func TestLinkUnits(t *testing.T) {
	prog, err := compileUnits(ModeC(), unitMath, unitMain)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{25, 27}
	if !reflect.DeepEqual(res.Output, want) {
		t.Fatalf("output = %v, want %v", res.Output, want)
	}
	sq := prog.Module.Lookup("square")
	if fp := prog.Plan.Funcs[sq]; fp == nil || fp.Open {
		t.Errorf("linked square should be closed to the allocator")
	}
}

// TestCompileSeparate: without linking, the imported functions stay open and
// the program still runs identically — only the allocator's knowledge
// differs.
func TestCompileSeparate(t *testing.T) {
	linked, err := compileUnits(ModeC(), unitMath, unitMain)
	if err != nil {
		t.Fatal(err)
	}
	sep, err := compileSeparate(ModeC(), unitMath, unitMain)
	if err != nil {
		t.Fatal(err)
	}
	lres, err := linked.Run()
	if err != nil {
		t.Fatal(err)
	}
	sres, err := sep.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lres.Output, sres.Output) {
		t.Fatalf("outputs differ: %v vs %v", lres.Output, sres.Output)
	}
	sq := sep.Module.Lookup("square")
	if fp := sep.Plan.Funcs[sq]; fp == nil || !fp.Open {
		t.Errorf("separately compiled square must be open")
	}
	// The paper's point: linking can only help (or tie) the save/restore
	// traffic, since the allocator gains exact summaries.
	if lres.Stats.SaveRestoreLS() > sres.Stats.SaveRestoreLS() {
		t.Errorf("linking increased save/restore traffic: %d vs %d",
			lres.Stats.SaveRestoreLS(), sres.Stats.SaveRestoreLS())
	}
}

func TestLinkErrors(t *testing.T) {
	var re *pipeline.RequestError
	if _, err := compileUnits(ModeC()); !errors.As(err, &re) {
		t.Errorf("no units must fail as a refused request, got %v", err)
	}
	_, err := pipeline.LinkUnits("func f() int { return 1; } func main() {}", "func f() int { return 2; }")
	if err == nil || !strings.Contains(err.Error(), "defined in unit") {
		t.Errorf("duplicate definition not caught: %v", err)
	}
	_, err = pipeline.LinkUnits("var g int; func main() {}", "var g int;")
	if err == nil || !strings.Contains(err.Error(), "global g") {
		t.Errorf("duplicate global not caught: %v", err)
	}
	if _, err := pipeline.LinkUnits("func f( {"); err == nil {
		t.Error("parse errors must propagate")
	}
}

// TestLinkKeepsTrueExterns: an extern no unit defines stays extern and
// calling it traps, as in single-unit compilation.
func TestLinkKeepsTrueExterns(t *testing.T) {
	prog, err := compileUnits(ModeC(), `
extern func mystery(x int) int;
func main() { print(mystery(1)); }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run(); err == nil {
		t.Error("calling a true extern should trap")
	}
}

// TestLinkThreeUnits exercises a longer import chain across units.
func TestLinkThreeUnits(t *testing.T) {
	u1 := `func base(x int) int { return x + 1; }`
	u2 := `
extern func base(x int) int;
func mid(x int) int { return base(x) * 2; }`
	u3 := `
extern func mid(x int) int;
func main() { print(mid(10)); }`
	prog, err := compileUnits(ModeC(), u1, u2, u3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Output, []int64{22}) {
		t.Fatalf("output = %v", res.Output)
	}
}
