package experiments

import (
	"context"
	"fmt"
	"strings"

	"chow88/internal/benchprog"
	"chow88/internal/core"
	"chow88/internal/obs"
	"chow88/internal/pipeline"
	"chow88/internal/pixie"
	"chow88/internal/sim"
)

// runProfiled compiles src under mode with profile feedback from a baseline
// training run (the paper's §8 future-work capability) and executes it.
// With mode.Inline set the final build also runs the procedure integrator
// on the measured frequencies, and the integrator's report is returned
// (nil otherwise, or when the inlined build was discarded by graceful
// degradation).
func runProfiled(src string, mode core.Mode) (*sim.Result, *obs.InlineReport, error) {
	built, err := pipeline.Build(context.Background(), pipeline.Request{Units: []string{src}, Mode: mode, Profile: true})
	if err != nil {
		return nil, nil, err
	}
	res, err := sim.Run(built.Prog, sim.Options{})
	if err != nil {
		return nil, nil, err
	}
	return res, built.Plan.Inline, nil
}

// ProfileFeedback measures the suite under mode C with static loop-depth
// frequency estimates versus measured profiles, reporting the paper's two
// metrics. The paper attributes its residual regressions (ccom) to the lack
// of exactly this data.
func ProfileFeedback() (string, error) {
	var b strings.Builder
	b.WriteString("Profile feedback (the paper's §8 future work) under mode C:\n\n")
	b.WriteString("  program    | II.C% static | II.C% profiled | I.C% static | I.C% profiled\n")
	b.WriteString("  -----------+--------------+----------------+-------------+--------------\n")
	for _, bench := range benchprog.All() {
		baseRun, err := run(bench.Source, core.ModeBase())
		if err != nil {
			return "", fmt.Errorf("%s base: %w", bench.Name, err)
		}
		base, wantOut := baseRun.stats, baseRun.output
		staticRun, err := run(bench.Source, core.ModeC())
		if err != nil {
			return "", fmt.Errorf("%s static: %w", bench.Name, err)
		}
		static, outS := staticRun.stats, staticRun.output
		profRun, _, err := runProfiled(bench.Source, core.ModeC())
		if err != nil {
			return "", fmt.Errorf("%s profiled: %w", bench.Name, err)
		}
		prof, outP := &profRun.Stats, profRun.Output
		if err := sameOutput(outS, wantOut); err != nil {
			return "", fmt.Errorf("%s static: %w", bench.Name, err)
		}
		if err := sameOutput(outP, wantOut); err != nil {
			return "", fmt.Errorf("%s profiled: %w", bench.Name, err)
		}
		fmt.Fprintf(&b, "  %-10s | %12.1f | %14.1f | %11.1f | %12.1f\n",
			bench.Name,
			pixie.PercentReduction(base.ScalarLS(), static.ScalarLS()),
			pixie.PercentReduction(base.ScalarLS(), prof.ScalarLS()),
			pixie.PercentReduction(base.Cycles, static.Cycles),
			pixie.PercentReduction(base.Cycles, prof.Cycles))
	}
	b.WriteString("\n  Measured block frequencies replace the 10^loop-depth estimate, so\n")
	b.WriteString("  save/restore placement follows actual execution behaviour — the\n")
	b.WriteString("  paper's prescription for its ccom regression.\n")
	return b.String(), nil
}
