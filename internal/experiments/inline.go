package experiments

import (
	"fmt"
	"strings"

	"chow88/internal/benchprog"
	"chow88/internal/core"
	"chow88/internal/inline"
	"chow88/internal/pixie"
)

// InlineVsIPRA extends the paper's Table 2 question — where does the call
// penalty go? — to its limit case: under mode C with profile feedback, how
// many cycles does profile-guided inlining recover beyond what IPRA +
// shrink-wrapping already save, and at what cost? The pixie classification
// attributes the delta: call-linkage cycles removed (the JAL/JR, argument
// MOVEs and frame adjustment that vanish with the call) versus save/restore
// loads+stores added (the callee's live ranges now flooding the caller can
// force extra shrink-wrap saves). Both attribution columns are measured on
// the trace, not estimated.
func InlineVsIPRA() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Inlining vs IPRA under mode C with profile feedback (budget %d%%):\n\n", inline.DefaultBudget)
	b.WriteString("  program    |     cycles C | C+inline     |   Δ%  | linkage- | sv/rs+ | sites | procs-\n")
	b.WriteString("  -----------+--------------+--------------+-------+----------+--------+-------+-------\n")
	improved, regressed := 0, 0
	var worst float64
	inlMode := core.ModeC()
	inlMode.Inline = true
	inlMode.InlineBudget = inline.DefaultBudget
	for _, bench := range benchprog.All() {
		ipraRun, _, err := runProfiled(bench.Source, core.ModeC())
		if err != nil {
			return "", fmt.Errorf("%s ipra: %w", bench.Name, err)
		}
		inlRun, rep, err := runProfiled(bench.Source, inlMode)
		if err != nil {
			return "", fmt.Errorf("%s inline: %w", bench.Name, err)
		}
		ipra, outI := &ipraRun.Stats, ipraRun.Output
		inl, outN := &inlRun.Stats, inlRun.Output
		if len(outI) != len(outN) {
			return "", fmt.Errorf("%s: output diverged", bench.Name)
		}
		for i := range outI {
			if outI[i] != outN[i] {
				return "", fmt.Errorf("%s: output diverged at %d", bench.Name, i)
			}
		}
		delta := pixie.PercentReduction(ipra.Cycles, inl.Cycles)
		if inl.Cycles < ipra.Cycles {
			improved++
		} else if inl.Cycles > ipra.Cycles {
			regressed++
		}
		if -delta > worst {
			worst = -delta
		}
		sites, procs := 0, 0
		if rep != nil {
			sites, procs = rep.SitesInlined, rep.ProcsEliminated
		}
		fmt.Fprintf(&b, "  %-10s | %12d | %12d | %5.1f | %8d | %6d | %5d | %5d\n",
			bench.Name, ipra.Cycles, inl.Cycles, delta,
			ipra.LinkageCycles-inl.LinkageCycles,
			inl.SaveRestoreLS()-ipra.SaveRestoreLS(),
			sites, procs)
	}
	fmt.Fprintf(&b, "\n  %d programs improved, %d regressed (worst regression %.1f%%).\n", improved, regressed, worst)
	b.WriteString("  Δ% = cycle reduction of inlining over mode C (positive is better);\n")
	b.WriteString("  linkage- = call-linkage cycles removed; sv/rs+ = save/restore\n")
	b.WriteString("  loads+stores added by live-range growth; sites/procs- = call sites\n")
	b.WriteString("  inlined / dead procedures dropped. Attribution via the pixie\n")
	b.WriteString("  instruction classification (disjoint linkage and save/restore bits).\n")
	return b.String(), nil
}
