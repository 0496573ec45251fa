// Command pixie compiles and executes a CW program, reporting the
// instruction-level trace statistics the paper's measurements are built
// from: executed cycles (exclusive of cache effects), instruction and call
// counts, and loads/stores classified into scalar, spill, save/restore and
// aggregate traffic.
//
// Usage:
//
//	pixie [-O3] [-shrinkwrap=false] [-regs cfg] file.cw
//
// With -compare, the program runs under all six measurement modes and a
// side-by-side summary is printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"chow88"
	"chow88/internal/core"
	"chow88/internal/mach"
	"chow88/internal/mcode"
	"chow88/internal/pixie"
)

func main() {
	o3 := flag.Bool("O3", false, "inter-procedural allocation")
	sw := flag.Bool("shrinkwrap", true, "shrink-wrap saves/restores")
	regs := flag.String("regs", "full", "register configuration: full, caller7, callee7")
	compare := flag.Bool("compare", false, "run under all six measurement modes")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pixie [flags] file.cw")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	if *compare {
		modes := []core.Mode{
			chow88.ModeBase(), chow88.ModeA(), chow88.ModeB(),
			chow88.ModeC(), chow88.ModeD(), chow88.ModeE(),
		}
		fmt.Printf("%-14s %12s %10s %10s %10s %8s\n",
			"mode", "cycles", "scalar l+s", "save/rest", "aggregate", "calls")
		for _, m := range modes {
			prog, err := chow88.Build(context.Background(), chow88.Request{Units: []string{string(src)}, Mode: m})
			if err != nil {
				fatal(fmt.Errorf("[%s] %w", m.Name, err))
			}
			res, err := prog.Run()
			if err != nil {
				fatal(fmt.Errorf("[%s] %w", m.Name, err))
			}
			st := res.Stats
			agg := st.LoadsByClass[mcode.ClassAggregate] + st.StoresByClass[mcode.ClassAggregate]
			fmt.Printf("%-14s %12d %10d %10d %10d %8d\n",
				m.Name, st.Cycles, st.ScalarLS(), st.SaveRestoreLS(), agg, st.Calls)
		}
		return
	}

	mode := chow88.ModeBase()
	if *o3 {
		mode = chow88.ModeC()
	}
	mode.ShrinkWrap = *sw
	switch *regs {
	case "full":
	case "caller7":
		mode.Config = mach.CallerOnly7()
	case "callee7":
		mode.Config = mach.CalleeOnly7()
	default:
		fatal(fmt.Errorf("unknown register configuration %q", *regs))
	}
	prog, err := chow88.Build(context.Background(), chow88.Request{Units: []string{string(src)}, Mode: mode})
	if err != nil {
		fatal(err)
	}
	res, err := prog.Run()
	if err != nil {
		fatal(err)
	}
	pixie.PrintRun(os.Stdout, os.Stderr, "", res.Output, &res.Stats)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pixie:", err)
	os.Exit(1)
}
