// Command experiments regenerates the paper's evaluation: Table 1,
// Table 2, the Figure 1–4 demonstrations, and the extensions (profile
// feedback, inlining, the calling-convention tuner).
//
// Usage:
//
//	experiments [-table1] [-table2] [-fig1] [-fig2] [-fig3] [-fig4]
//	            [-height] [-profile] [-inline] [-tune] [-all]
package main

import (
	"flag"
	"fmt"
	"os"

	"chow88/internal/experiments"
	"chow88/internal/obs"
)

func main() {
	t1 := flag.Bool("table1", false, "reproduce Table 1 (shrink-wrap and IPRA effects)")
	t2 := flag.Bool("table2", false, "reproduce Table 2 (7 caller-saved vs 7 callee-saved)")
	f1 := flag.Bool("fig1", false, "demonstrate Figure 1 (call-tree register reuse)")
	f2 := flag.Bool("fig2", false, "demonstrate Figure 2 (save placement vs CFG form)")
	f3 := flag.Bool("fig3", false, "demonstrate Figure 3 (per-path shrink-wrap effect)")
	f4 := flag.Bool("fig4", false, "demonstrate Figure 4 (save placement vs call frequency)")
	height := flag.Bool("height", false, "run the call-graph-height ablation (D vs E crossover)")
	profile := flag.Bool("profile", false, "measure profile feedback vs static frequency estimates")
	inl := flag.Bool("inline", false, "measure profile-guided inlining vs IPRA with pixie attribution")
	tune := flag.Bool("tune", false, "tune sampled calling conventions per program and for the whole workload (chowtune has the full controls)")
	all := flag.Bool("all", false, "run everything")
	stats := flag.Bool("stats", false, "collect and print per-measurement compile/run metrics")
	flag.Parse()

	if !(*t1 || *t2 || *f1 || *f2 || *f3 || *f4 || *height || *profile || *inl || *tune) {
		*all = true
	}
	if *stats {
		obs.Begin(obs.Options{})
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *all || *t1 {
		rows, err := experiments.Table1()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatTable(
			"Table 1. Effects of applying the techniques on the 13-program suite",
			rows, experiments.Keys1))
		fmt.Println("Key: A = -O2 + shrink-wrap; B = -O3; C = -O3 + shrink-wrap")
		fmt.Println()
		if s := experiments.FormatObs("Table 1 compile/run metrics", rows, experiments.Keys1); s != "" {
			fmt.Println(s)
		}
	}
	if *all || *t2 {
		rows, err := experiments.Table2()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatTable(
			"Table 2. Effects of the two register classes (mode C, 7 registers)",
			rows, experiments.Keys2))
		fmt.Println("Key: D = 7 caller-saved only; E = 7 callee-saved only")
		fmt.Println()
		if s := experiments.FormatObs("Table 2 compile/run metrics", rows, experiments.Keys2); s != "" {
			fmt.Println(s)
		}
	}
	type figFn struct {
		on bool
		fn func() (string, error)
	}
	for _, fg := range []figFn{
		{*all || *f1, experiments.Fig1},
		{*all || *f2, experiments.Fig2},
		{*all || *f3, experiments.Fig3},
		{*all || *f4, experiments.Fig4},
		{*all || *height, experiments.HeightSweep},
		{*all || *profile, experiments.ProfileFeedback},
		{*all || *inl, experiments.InlineVsIPRA},
		{*all || *tune, func() (string, error) {
			rep, err := experiments.Tune(experiments.SampleConventions(24), experiments.TuneWorkload(4), 0)
			if err != nil {
				return "", err
			}
			return experiments.FormatTune(rep), nil
		}},
	} {
		if !fg.on {
			continue
		}
		s, err := fg.fn()
		if err != nil {
			fail(err)
		}
		fmt.Println(s)
	}
}
