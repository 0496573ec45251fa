package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"chow88/internal/benchprog"
	"chow88/internal/core"
	"chow88/internal/explain"
	"chow88/internal/front"
	"chow88/internal/mach"
	"chow88/internal/pipeline"
	"chow88/internal/pixie"
	"chow88/internal/progen"
	"chow88/internal/sim"
)

// The convention sweep answers the question the paper fixes by fiat: given
// the 20 allocatable registers, where should the caller-saved/callee-saved
// boundary sit, and how many registers should carry parameters? Every
// candidate partition compiles the whole workload under mode C with the
// validator on, runs it on the simulator's fast engine, and is charged the
// trace's cycle count plus the two penalty buckets the paper measures —
// save/restore loads+stores and call-linkage cycles. Candidates run in a
// worker pool; the explain-journal attribution of the winner (a process-
// global journal, so necessarily sequential) happens after the pool drains.

// Workload is one program the sweep measures. The standard workload is the
// 13-program suite plus synthetic progen programs whose call sites carry up
// to 6 arguments — beyond what the suite exercises under the fixed 4-register
// convention.
type Workload struct {
	Name   string
	Source string
}

// SweepWorkload assembles the suite plus n synthetic programs. Generated
// seeds whose baseline run exceeds the simulator budget are skipped (the
// generator has no termination proof), scanning forward until n runnable
// programs are found.
func SweepWorkload(n int) ([]Workload, error) {
	var out []Workload
	for _, b := range benchprog.All() {
		out = append(out, Workload{Name: b.Name, Source: b.Source})
	}
	cfg := progen.DefaultConfig()
	cfg.MaxParams = mach.MaxParams
	for seed, found := int64(0), 0; found < n && seed < int64(n)*8+32; seed++ {
		src := progen.Generate(seed, cfg)
		if _, _, err := sweepRun(src, core.ModeC()); err != nil {
			continue
		}
		out = append(out, Workload{Name: fmt.Sprintf("gen%d", seed), Source: src})
		found++
	}
	return out, nil
}

// sweepRun is the lean measurement path: compile under mode, execute on the
// default (fast) engine, return the trace stats and output. No obs spans —
// sweep candidates run concurrently and per-measurement reports would
// interleave.
func sweepRun(src string, mode core.Mode) (*pixie.Stats, []int64, error) {
	built, err := pipeline.Build(context.Background(), pipeline.Request{Units: []string{src}, Mode: mode})
	if err != nil {
		return nil, nil, err
	}
	res, err := sim.Run(built.Prog, sim.Options{})
	if err != nil {
		return nil, nil, err
	}
	return &res.Stats, res.Output, nil
}

// SweepRow is one candidate convention's aggregate over the workload.
type SweepRow struct {
	Cfg  *mach.Config
	Spec string
	// Cycles, SaveLS and Linkage are trace totals over the workload: executed
	// cycles, save/restore loads+stores, and call-linkage cycles.
	Cycles  int64
	SaveLS  int64
	Linkage int64
	// ByProgram holds the per-program stats in workload order (feeds the
	// attribution step and per-program selection).
	ByProgram []*pixie.Stats
	// Rejected carries the Config.Validate() reason for candidates that never
	// compiled; all other fields are zero.
	Rejected string
}

// SweepReport is the full sweep result.
type SweepReport struct {
	Workload []Workload
	// Rows holds the measured candidates, best (fewest cycles) first, ties
	// broken by spec string — a total order independent of worker scheduling.
	Rows []*SweepRow
	// Rejected holds candidates Config.Validate() refused, with reasons.
	Rejected []*SweepRow
	// Base is the Default() convention's row (also present in Rows).
	Base *SweepRow
	// AttrProgram names the workload program with the largest winner-vs-
	// default cycle delta; Attribution is the explain-journal diff naming the
	// save/restore placement decisions responsible for it.
	AttrProgram string
	Attribution string
}

// Winner returns the best measured row (nil on an empty sweep).
func (r *SweepReport) Winner() *SweepRow {
	if len(r.Rows) == 0 {
		return nil
	}
	return r.Rows[0]
}

// Sweep measures every candidate convention over the workload using at most
// workers concurrent compilations (0 selects GOMAXPROCS). Candidates that
// fail Config.Validate() are reported as rejected rather than compiled; the
// Default() convention is always included. Every measured candidate's output
// must match the default convention's on every program — a mismatch fails
// the sweep. The report is deterministic: byte-identical across worker
// counts, including workers=1.
func Sweep(cands []*mach.Config, workload []Workload, workers int) (*SweepReport, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep := &SweepReport{Workload: workload}

	// Partition candidates: rejected ones never reach the pool. Duplicate
	// specs (Enumerate covers the Default point) measure once.
	var accepted []*SweepRow
	seen := map[string]bool{}
	base := mach.Default()
	for _, c := range append([]*mach.Config{base}, cands...) {
		if err := c.Validate(); err != nil {
			rep.Rejected = append(rep.Rejected, &SweepRow{Cfg: c, Spec: specOrName(c), Rejected: err.Error()})
			continue
		}
		spec := c.Spec()
		if seen[spec] {
			continue
		}
		seen[spec] = true
		accepted = append(accepted, &SweepRow{Cfg: c, Spec: spec})
	}
	sort.Slice(rep.Rejected, func(i, j int) bool { return rep.Rejected[i].Spec < rep.Rejected[j].Spec })

	// The default convention runs first, alone: its outputs are the oracle
	// every candidate is checked against.
	baseSpec := base.Spec()
	var baseRow *SweepRow
	for _, r := range accepted {
		if r.Spec == baseSpec {
			baseRow = r
		}
	}
	wantOut := make([][]int64, len(workload))
	for i, w := range workload {
		st, out, err := sweepRun(w.Source, core.ModeConv(baseRow.Cfg))
		if err != nil {
			return nil, fmt.Errorf("%s [%s]: %w", w.Name, baseRow.Spec, err)
		}
		wantOut[i] = out
		baseRow.note(st)
	}
	rep.Base = baseRow

	// Worker pool over the remaining candidates. Each worker owns whole rows,
	// so aggregation needs no locks beyond the error slot.
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		fail  error
		next  = make(chan *SweepRow)
		abort = make(chan struct{})
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for row := range next {
				if err := measureRow(row, workload, wantOut); err != nil {
					mu.Lock()
					if fail == nil {
						fail = err
						close(abort)
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
feed:
	for _, r := range accepted {
		if r == baseRow {
			continue
		}
		select {
		case next <- r:
		case <-abort:
			break feed
		}
	}
	close(next)
	wg.Wait()
	if fail != nil {
		return nil, fail
	}

	rep.Rows = accepted
	sort.Slice(rep.Rows, func(i, j int) bool {
		if rep.Rows[i].Cycles != rep.Rows[j].Cycles {
			return rep.Rows[i].Cycles < rep.Rows[j].Cycles
		}
		return rep.Rows[i].Spec < rep.Rows[j].Spec
	})

	// Attribution: re-derive the winner-vs-default delta on the program where
	// it is largest, through the decision journal. The journal is a process-
	// global atomic pointer, so this runs strictly after the pool.
	if w := rep.Winner(); w != nil && w != baseRow {
		prog, delta := -1, int64(0)
		for i := range workload {
			d := baseRow.ByProgram[i].Cycles - w.ByProgram[i].Cycles
			if d < 0 {
				d = -d
			}
			if d > delta {
				prog, delta = i, d
			}
		}
		if prog >= 0 {
			attr, err := attributeDelta(workload[prog], baseRow, w, prog)
			if err != nil {
				return nil, fmt.Errorf("attribution on %s: %w", workload[prog].Name, err)
			}
			rep.AttrProgram = workload[prog].Name
			rep.Attribution = attr
		}
	}
	return rep, nil
}

// measureRow compiles and runs every workload program under row's
// convention, checking output against the default convention's.
func measureRow(row *SweepRow, workload []Workload, wantOut [][]int64) error {
	for i, w := range workload {
		st, out, err := sweepRun(w.Source, core.ModeConv(row.Cfg))
		if err != nil {
			return fmt.Errorf("%s [%s]: %w", w.Name, row.Spec, err)
		}
		if len(out) != len(wantOut[i]) {
			return fmt.Errorf("%s [%s]: output diverged", w.Name, row.Spec)
		}
		for k := range out {
			if out[k] != wantOut[i][k] {
				return fmt.Errorf("%s [%s]: output diverged at %d", w.Name, row.Spec, k)
			}
		}
		row.note(st)
	}
	return nil
}

// note accumulates one program's stats into the row totals.
func (r *SweepRow) note(st *pixie.Stats) {
	r.ByProgram = append(r.ByProgram, st)
	r.Cycles += st.Cycles
	r.SaveLS += st.SaveRestoreLS()
	r.Linkage += st.LinkageCycles
}

// attributeDelta journals two sequential compiles of one program — default
// convention, then winner — and feeds both artifacts through the explaindiff
// alignment, reporting which save/restore placements account for the
// measured save/restore traffic change.
func attributeDelta(w Workload, base, win *SweepRow, prog int) (string, error) {
	arts := make([]*explain.Artifact, 2)
	for i, cfg := range []*mach.Config{base.Cfg, win.Cfg} {
		j := explain.Begin()
		_, _, err := sweepRun(w.Source, core.ModeConv(cfg))
		explain.End()
		if err != nil {
			return "", err
		}
		arts[i] = j.Artifact()
	}
	d := explain.DiffArtifacts(arts[0], arts[1])
	measured := win.ByProgram[prog].SaveRestoreLS() - base.ByProgram[prog].SaveRestoreLS()
	return d.Format(base.Spec, win.Spec, float64(measured), true), nil
}

// specOrName renders an identifier even for configs too broken to encode
// meaningfully (the spec encoder is total, so this is just Spec today).
func specOrName(c *mach.Config) string {
	if s := c.Spec(); s != "" {
		return s
	}
	return c.Name
}

// SampleConventions returns a deterministic spread of at most n points from
// the full enumeration (Default() is always among them) — the smoke-test and
// quick-look alternative to sweeping all of Enumerate().
func SampleConventions(n int) []*mach.Config {
	all := mach.Enumerate(-1)
	if n <= 0 || n >= len(all) {
		return all
	}
	out := []*mach.Config{mach.Default()}
	seen := map[string]bool{out[0].Spec(): true}
	for i := 0; i < n && len(out) < n; i++ {
		c := all[i*len(all)/n]
		if spec := c.Spec(); !seen[spec] {
			seen[spec] = true
			out = append(out, c)
		}
	}
	return out
}

// FormatSweep renders the report: one row per measured convention, penalty
// buckets beside the cycle totals, the rejection list, and the winner's
// attribution appendix.
func FormatSweep(r *SweepReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Convention sweep over %d programs, %d candidate conventions:\n\n",
		len(r.Workload), len(r.Rows))
	b.WriteString("  convention                                |       cycles |   Δ%  |  save/rest |  linkage\n")
	b.WriteString("  ------------------------------------------+--------------+-------+------------+---------\n")
	for _, row := range r.Rows {
		mark := " "
		switch row {
		case r.Winner():
			mark = "*"
		case r.Base:
			mark = "="
		}
		fmt.Fprintf(&b, " %s%-42s | %12d | %5.1f | %10d | %8d\n",
			mark, row.Spec, row.Cycles,
			pixie.PercentReduction(r.Base.Cycles, row.Cycles),
			row.SaveLS, row.Linkage)
	}
	b.WriteString("\n  Δ% = cycle reduction vs the default convention (positive is better);\n")
	b.WriteString("  save/rest = save/restore loads+stores; linkage = call-linkage cycles;\n")
	b.WriteString("  * = sweep winner, = = default convention. Totals over the workload.\n")
	if len(r.Rejected) > 0 {
		fmt.Fprintf(&b, "\n  %d candidate(s) rejected by Config.Validate():\n", len(r.Rejected))
		for _, row := range r.Rejected {
			fmt.Fprintf(&b, "    %-42s %s\n", row.Spec, row.Rejected)
		}
	}
	if r.Attribution != "" {
		fmt.Fprintf(&b, "\nAttribution of the winner's save/restore delta on %q:\n%s", r.AttrProgram, r.Attribution)
	}
	return b.String()
}

// TuneRow is one program's profile-guided convention selection.
type TuneRow struct {
	Program string
	// BaseCycles is the profiled build under the Default() convention;
	// BestCycles is the profiled build under Best. Best is never worse: the
	// default convention competes in every selection.
	BaseCycles int64
	Best       *mach.Config
	BestCycles int64
	Evaluated  int
}

// Tune performs per-program profile-guided convention selection over the
// 13-program suite: each program trains once under the baseline mode with
// the trace profiler on, the measured block frequencies are applied to a
// fresh module clone per candidate, and the candidate whose profiled mode-C
// build executes the fewest cycles wins. The Default() convention always
// competes, so selection never regresses a program; ties keep the default.
// Programs tune concurrently (candidates within one program share its
// training run).
func Tune(cands []*mach.Config, workers int) ([]*TuneRow, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	base := mach.Default()
	var pool []*mach.Config
	seen := map[string]bool{}
	for _, c := range append([]*mach.Config{base}, cands...) {
		if err := c.Validate(); err != nil {
			continue
		}
		if spec := c.Spec(); !seen[spec] {
			seen[spec] = true
			pool = append(pool, c)
		}
	}

	suite := benchprog.All()
	rows := make([]*TuneRow, len(suite))
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		fail error
		next = make(chan int)
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				row, err := tuneProgram(suite[idx].Name, suite[idx].Source, base, pool)
				mu.Lock()
				if err != nil && fail == nil {
					fail = err
				}
				rows[idx] = row
				mu.Unlock()
			}
		}()
	}
	for i := range suite {
		next <- i
	}
	close(next)
	wg.Wait()
	if fail != nil {
		return nil, fail
	}
	return rows, nil
}

// tuneProgram trains src once and races every candidate convention on the
// profiled build.
func tuneProgram(name, src string, base *mach.Config, pool []*mach.Config) (*TuneRow, error) {
	mod, err := front.Module(src, true, true)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	trainCode, trainRes, err := pipeline.Train(context.Background(), mod, core.ModeConv(base))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	wantOut := trainRes.Output

	row := &TuneRow{Program: name, Evaluated: len(pool)}
	baseSpec := base.Spec()
	for _, cfg := range pool {
		// A fresh clone per candidate: ApplyProfile writes block profiles
		// onto the module, and the cached front end hands each call a
		// private copy.
		m, err := front.Module(src, true, true)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if err := pipeline.ApplyProfile(m, trainCode, trainRes); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		_, code, _, err := pipeline.BuildCtx(context.Background(), m, core.ModeConv(cfg))
		if err != nil {
			return nil, fmt.Errorf("%s [%s]: %w", name, cfg.Spec(), err)
		}
		res, err := sim.Run(code, sim.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s [%s]: %w", name, cfg.Spec(), err)
		}
		if len(res.Output) != len(wantOut) {
			return nil, fmt.Errorf("%s [%s]: output diverged", name, cfg.Spec())
		}
		for k := range res.Output {
			if res.Output[k] != wantOut[k] {
				return nil, fmt.Errorf("%s [%s]: output diverged at %d", name, cfg.Spec(), k)
			}
		}
		cyc := res.Stats.Cycles
		if cfg.Spec() == baseSpec {
			row.BaseCycles = cyc
		}
		// Strictly fewer cycles wins; ties keep the earlier candidate, and the
		// default convention is first in the pool.
		if row.Best == nil || cyc < row.BestCycles {
			row.Best, row.BestCycles = cfg, cyc
		}
	}
	return row, nil
}

// FormatTune renders the per-program selections.
func FormatTune(rows []*TuneRow) string {
	var b strings.Builder
	b.WriteString("Profile-guided per-program convention selection (mode C, trained on the baseline run):\n\n")
	b.WriteString("  program    |      default |         best |   Δ%  | convention\n")
	b.WriteString("  -----------+--------------+--------------+-------+-----------\n")
	improved := 0
	for _, r := range rows {
		d := pixie.PercentReduction(r.BaseCycles, r.BestCycles)
		if r.BestCycles < r.BaseCycles {
			improved++
		}
		fmt.Fprintf(&b, "  %-10s | %12d | %12d | %5.1f | %s\n",
			r.Program, r.BaseCycles, r.BestCycles, d, r.Best.Spec())
	}
	fmt.Fprintf(&b, "\n  %d of %d programs beat the default convention; none regress (the\n",
		improved, len(rows))
	b.WriteString("  default competes in every selection). Δ% = cycle reduction of the\n")
	b.WriteString("  selected convention over the default (positive is better).\n")
	return b.String()
}
