package chow88

import (
	"context"
	"reflect"
	"testing"

	"chow88/internal/benchprog"
	"chow88/internal/progen"
)

// compileProfiled is Build of a single-unit profile-feedback Request.
func compileProfiled(src string, mode Mode) (*Program, error) {
	return Build(context.Background(), Request{Units: []string{src}, Mode: mode, Profile: true})
}

// compileInlined is compileProfiled with the procedure integrator on at its
// default budget.
func compileInlined(src string, mode Mode) (*Program, error) {
	mode.Inline = true
	return compileProfiled(src, mode)
}

// TestProfiledCompilationCorrect: profile feedback must never change
// program semantics, across the suite and random programs.
func TestProfiledCompilationCorrect(t *testing.T) {
	for _, b := range benchprog.All()[:6] {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			want, err := Interpret(b.Source)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := compileProfiled(b.Source, ModeC())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			res, err := prog.Run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !reflect.DeepEqual(res.Output, want) {
				t.Errorf("output = %v, want %v", res.Output, want)
			}
		})
	}
}

func TestProfiledRandomPrograms(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 6
	}
	for seed := 0; seed < n; seed++ {
		src := progen.Generate(int64(seed), progen.DefaultConfig())
		want, ok := oracle(src)
		if !ok {
			continue
		}
		prog, err := compileProfiled(src, ModeC())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := prog.Run()
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if !reflect.DeepEqual(res.Output, want) {
			t.Fatalf("seed %d: output mismatch\n got %v\nwant %v\n%s", seed, res.Output, want, src)
		}
	}
}

// TestProfileSkewsPlacement: with a measured profile showing the expensive
// region is rarely executed, save/restore traffic should not exceed the
// static-estimate build's (and typically improves when the static estimate
// guessed wrong).
func TestProfileSkewsPlacement(t *testing.T) {
	// The loop around q runs 400x, the loop around r runs twice — but both
	// loops have static depth 1, so the static estimate cannot tell them
	// apart. The profile can.
	src := `
var g int;
func q(v int) int { return v + 1; }
func r(v int) int {
    var a int;
    var b int;
    a = q(v);
    b = q(v + 1);
    return a * b + g;
}
func p() int {
    var x int;
    var acc int;
    var i int;
    x = 13;
    acc = 0;
    for (i = 0; i < 400; i = i + 1) {
        acc = acc + q(i) + x;
    }
    for (i = 0; i < 2; i = i + 1) {
        acc = acc + r(i) + x;
    }
    return acc;
}
func main() { print(p()); }`
	static, err := Compile(src, ModeC())
	if err != nil {
		t.Fatal(err)
	}
	sres, err := static.Run()
	if err != nil {
		t.Fatal(err)
	}
	profiled, err := compileProfiled(src, ModeC())
	if err != nil {
		t.Fatal(err)
	}
	pres, err := profiled.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sres.Output, pres.Output) {
		t.Fatalf("outputs differ: %v vs %v", sres.Output, pres.Output)
	}
	if pres.Stats.SaveRestoreLS() > sres.Stats.SaveRestoreLS() {
		t.Errorf("profile feedback increased save/restore traffic: %d -> %d",
			sres.Stats.SaveRestoreLS(), pres.Stats.SaveRestoreLS())
	}
	t.Logf("save/restore static=%d profiled=%d cycles static=%d profiled=%d",
		sres.Stats.SaveRestoreLS(), pres.Stats.SaveRestoreLS(),
		sres.Stats.Cycles, pres.Stats.Cycles)
}
