// profile: demonstrate the paper's stated future work — feeding measured
// execution frequencies back to the register allocator. The static
// loop-depth estimate cannot tell a 400-iteration loop from a 2-iteration
// one; a training run can.
package main

import (
	"context"
	"fmt"
	"log"

	"chow88"
	"chow88/internal/benchprog"
)

const src = `
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

func main() { print(p()); }
`

func main() {
	sres := mustRun(src, chow88.ModeC(), false)
	pres := mustRun(src, chow88.ModeC(), true)
	fmt.Printf("static estimates:  output=%v cycles=%d save/restore=%d\n",
		sres.Output, sres.Stats.Cycles, sres.Stats.SaveRestoreLS())
	fmt.Printf("profile feedback:  output=%v cycles=%d save/restore=%d\n",
		pres.Output, pres.Stats.Cycles, pres.Stats.SaveRestoreLS())
	fmt.Println("\nWith measured block frequencies the allocator prices the two call")
	fmt.Println("sites by their true weights instead of treating both loops alike —")
	fmt.Println("the paper's prescription for its ccom regression (§8).")

	// The suite's diff benchmark shows the effect at full size: under plain
	// IPRA its cycles regress versus -O2 (saves migrated into a hotter
	// region, the paper's ccom failure mode); the profile repairs it.
	d := benchprog.Lookup("diff")
	base := mustRun(d.Source, chow88.ModeBase(), false)
	ipra := mustRun(d.Source, chow88.ModeC(), false)
	prof := mustRun(d.Source, chow88.ModeC(), true)
	fmt.Printf("\ndiff benchmark cycles:  -O2 %d | -O3+sw %d | -O3+sw+profile %d\n",
		base.Stats.Cycles, ipra.Stats.Cycles, prof.Stats.Cycles)
}

func mustRun(src string, mode chow88.Mode, profile bool) *chow88.RunResult {
	prog, err := chow88.Build(context.Background(), chow88.Request{Units: []string{src}, Mode: mode, Profile: profile})
	if err != nil {
		log.Fatal(err)
	}
	res, err := prog.Run()
	if err != nil {
		log.Fatal(err)
	}
	return res
}
