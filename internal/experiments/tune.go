package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"chow88/internal/benchprog"
	"chow88/internal/core"
	"chow88/internal/explain"
	"chow88/internal/front"
	"chow88/internal/mach"
	"chow88/internal/mcode"
	"chow88/internal/pipeline"
	"chow88/internal/pixie"
	"chow88/internal/progen"
	"chow88/internal/sim"
)

// The convention tuner answers the question the paper fixes by fiat: given
// the 20 allocatable registers, where should the caller-saved/callee-saved
// boundary sit, and how many registers should carry parameters? Each
// workload program trains once under the baseline with the trace profiler
// on; every candidate partition then gets one profiled mode-C build of every
// program (validator on), run once on the simulator's fast engine and
// charged the trace's cycles plus the two penalty buckets the paper
// measures — save/restore loads+stores and call-linkage cycles. Both answers
// are read off that one grid: a convention per program, and the best single
// convention for the whole workload. Cells run in a worker pool; the
// explain-journal attribution (a process-global journal, so necessarily
// sequential) happens after the pool drains.

// Workload is one program the tuner measures. The standard workload is the
// 13-program suite plus synthetic progen programs whose call sites carry up
// to 6 arguments — beyond what the suite exercises under the fixed 4-register
// convention.
type Workload struct {
	Name   string
	Source string
	// trained is the training run TuneWorkload's seed filter already paid
	// for; Tune trains the programs that lack one.
	trained *training
}

// TuneWorkload assembles the suite plus n synthetic programs. Generated
// seeds whose training run fails — the simulator budget, since the
// generator has no termination proof — are skipped, scanning forward until
// n tunable programs are found.
func TuneWorkload(n int) []Workload {
	var out []Workload
	for _, b := range benchprog.All() {
		out = append(out, Workload{Name: b.Name, Source: b.Source})
	}
	cfg := progen.DefaultConfig()
	cfg.MaxParams = mach.MaxParams
	for seed, found := int64(0), 0; found < n && seed < int64(n)*8+32; seed++ {
		src := progen.Generate(seed, cfg)
		t, err := train(src)
		if err != nil {
			continue
		}
		out = append(out, Workload{Name: fmt.Sprintf("gen%d", seed), Source: src, trained: t})
		found++
	}
	return out
}

// training is one program's profile-training result, from which each
// profiled build is derived.
type training struct {
	src  string
	code *mcode.Program
	run  *sim.Result
}

func train(src string) (*training, error) {
	mod, err := front.Module(src, true, true)
	if err != nil {
		return nil, err
	}
	code, res, err := pipeline.Train(context.Background(), mod, core.ModeC())
	if err != nil {
		return nil, err
	}
	return &training{src: src, code: code, run: res}, nil
}

// build compiles the program under mode with the training counts applied
// to a fresh front-end copy (ApplyProfile writes block profiles onto the
// module, and the cached front end hands each call a private copy).
func (t *training) build(mode core.Mode) (*mcode.Program, error) {
	mod, err := front.Module(t.src, true, true)
	if err != nil {
		return nil, err
	}
	if err := pipeline.ApplyProfile(mod, t.code, t.run); err != nil {
		return nil, err
	}
	_, code, _, err := pipeline.BuildCtx(context.Background(), mod, mode)
	return code, err
}

// measure builds and runs the program under mode, checking its output
// against the training run's.
func (t *training) measure(mode core.Mode) (*pixie.Stats, error) {
	code, err := t.build(mode)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(code, sim.Options{})
	if err != nil {
		return nil, err
	}
	if err := sameOutput(res.Output, t.run.Output); err != nil {
		return nil, err
	}
	return &res.Stats, nil
}

// TuneRow is one selection read off the grid: a program's own convention,
// or (TuneReport.Whole) the best single convention for the workload.
type TuneRow struct {
	Program string
	// BaseCycles is the Default() convention's measurement; BestCycles is
	// Best's. Best is never worse: the default competes in every selection.
	BaseCycles int64
	Best       *mach.Config
	BestCycles int64
	// SaveLS and Linkage are Best's save/restore loads+stores and
	// call-linkage cycles.
	SaveLS  int64
	Linkage int64
}

// Rejection is a candidate Config.Validate() refused, with its reason.
type Rejection struct {
	Spec   string
	Reason string
}

// TuneReport is the tuner's result.
type TuneReport struct {
	// Candidates are the measured conventions: Default() first, then the
	// valid candidates in input order, duplicate specs dropped.
	Candidates []*mach.Config
	// Rejected lists the refused candidates, sorted by spec.
	Rejected []Rejection
	// Rows holds one per-program selection, in workload order.
	Rows []*TuneRow
	// Whole is the best single convention by total cycles over the
	// workload; its Program is "workload".
	Whole *TuneRow
	// AttrProgram names the program with the largest per-program win;
	// Attribution is the explain-journal diff naming the save/restore
	// placement decisions responsible for it. Both are empty when every
	// program keeps the default.
	AttrProgram string
	Attribution string
}

// Tune measures every candidate convention on every workload program using
// at most workers concurrent cells (0 selects GOMAXPROCS). Candidates that
// fail Config.Validate() are reported as rejected rather than compiled; the
// Default() convention is always measured and is the incumbent of every
// selection, so no program regresses (strictly fewer cycles wins, ties keep
// the earlier candidate). Every build's output must match its program's
// training run. The report is deterministic: byte-identical across worker
// counts, including workers=1.
func Tune(cands []*mach.Config, workload []Workload, workers int) (*TuneReport, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep := &TuneReport{}
	seen := map[string]bool{}
	for _, c := range append([]*mach.Config{mach.Default()}, cands...) {
		spec := c.Spec()
		if err := c.Validate(); err != nil {
			rep.Rejected = append(rep.Rejected, Rejection{Spec: spec, Reason: err.Error()})
			continue
		}
		if !seen[spec] {
			seen[spec] = true
			rep.Candidates = append(rep.Candidates, c)
		}
	}
	sort.Slice(rep.Rejected, func(i, j int) bool { return rep.Rejected[i].Spec < rep.Rejected[j].Spec })

	trained := make([]*training, len(workload))
	err := parallel(len(workload), workers, func(p int) error {
		t := workload[p].trained
		if t == nil {
			var err error
			if t, err = train(workload[p].Source); err != nil {
				return fmt.Errorf("%s: %w", workload[p].Name, err)
			}
		}
		trained[p] = t
		return nil
	})
	if err != nil {
		return nil, err
	}

	// grid[p][c] is program p under Candidates[c].
	nc := len(rep.Candidates)
	grid := make([][]*pixie.Stats, len(workload))
	for p := range grid {
		grid[p] = make([]*pixie.Stats, nc)
	}
	err = parallel(len(workload)*nc, workers, func(i int) error {
		p, c := i/nc, i%nc
		st, err := trained[p].measure(core.ModeConv(rep.Candidates[c]))
		if err != nil {
			return fmt.Errorf("%s [%s]: %w", workload[p].Name, rep.Candidates[c].Spec(), err)
		}
		grid[p][c] = st
		return nil
	})
	if err != nil {
		return nil, err
	}

	total := make([]*pixie.Stats, nc)
	for c := range total {
		total[c] = &pixie.Stats{}
	}
	for p, w := range workload {
		rep.Rows = append(rep.Rows, rep.choose(w.Name, grid[p]))
		for c, st := range grid[p] {
			total[c].Add(st)
		}
	}
	rep.Whole = rep.choose("workload", total)

	// Attribution: re-derive the largest per-program win through the
	// decision journal.
	best, win := -1, int64(0)
	for p, r := range rep.Rows {
		if d := r.BaseCycles - r.BestCycles; d > win {
			best, win = p, d
		}
	}
	if best >= 0 {
		r := rep.Rows[best]
		attr, err := trained[best].attribute(rep.Candidates[0], r.Best, r.SaveLS-grid[best][0].SaveRestoreLS())
		if err != nil {
			return nil, fmt.Errorf("attribution on %s: %w", r.Program, err)
		}
		rep.AttrProgram, rep.Attribution = r.Program, attr
	}
	return rep, nil
}

// choose selects from one program's measurements, or the column totals,
// where col[c] measures Candidates[c]: the fewest cycles wins and ties keep
// the earlier candidate, so the default (index 0) wins every tie.
func (r *TuneReport) choose(name string, col []*pixie.Stats) *TuneRow {
	b := 0
	for c := range col {
		if col[c].Cycles < col[b].Cycles {
			b = c
		}
	}
	return &TuneRow{
		Program: name, BaseCycles: col[0].Cycles,
		Best: r.Candidates[b], BestCycles: col[b].Cycles,
		SaveLS: col[b].SaveRestoreLS(), Linkage: col[b].LinkageCycles,
	}
}

// attribute journals two sequential profiled builds — the default
// convention, then the pick — and feeds both artifacts through the
// explaindiff alignment, reporting which save/restore placements account
// for the measured save/restore traffic change.
func (t *training) attribute(base, pick *mach.Config, measured int64) (string, error) {
	arts := make([]*explain.Artifact, 2)
	for i, cfg := range []*mach.Config{base, pick} {
		j := explain.Begin()
		_, err := t.build(core.ModeConv(cfg))
		explain.End()
		if err != nil {
			return "", err
		}
		arts[i] = j.Artifact()
	}
	d := explain.DiffArtifacts(arts[0], arts[1])
	return d.Format(base.Spec(), pick.Spec(), float64(measured), true), nil
}

// parallel calls fn(0), …, fn(n-1) on at most workers goroutines, stops
// handing out indices after the first failure, and returns the failure
// with the lowest index.
func parallel(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		failed atomic.Bool
	)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SampleConventions returns a deterministic spread of at most n points from
// the full enumeration (Default() is always among them) — the smoke-test and
// quick-look alternative to tuning over all of Enumerate().
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

// FormatTune renders the report: one row per program, the whole-workload
// line beneath them, the rejection list and the attribution appendix. The
// convention column is as wide as the longest spec printed.
func FormatTune(r *TuneReport) string {
	width := max(len("convention"), len(r.Whole.Best.Spec()))
	for _, row := range r.Rows {
		width = max(width, len(row.Best.Spec()))
	}
	for _, rj := range r.Rejected {
		width = max(width, len(rj.Spec))
	}
	rule := "  -----------+--------------+--------------+-------+------------+----------+-" + strings.Repeat("-", width) + "\n"

	var b strings.Builder
	fmt.Fprintf(&b, "Convention tuning over %d programs, %d candidate conventions\n", len(r.Rows), len(r.Candidates))
	b.WriteString("(mode C, profiled builds trained on the baseline run):\n\n")
	b.WriteString("  program    |      default |         best |   Δ%  |  save/rest |  linkage | convention\n")
	b.WriteString(rule)
	improved := 0
	line := func(row *TuneRow) {
		fmt.Fprintf(&b, "  %-10s | %12d | %12d | %5.1f | %10d | %8d | %s\n",
			row.Program, row.BaseCycles, row.BestCycles,
			pixie.PercentReduction(row.BaseCycles, row.BestCycles),
			row.SaveLS, row.Linkage, row.Best.Spec())
	}
	for _, row := range r.Rows {
		if row.BestCycles < row.BaseCycles {
			improved++
		}
		line(row)
	}
	b.WriteString(rule)
	line(r.Whole)
	fmt.Fprintf(&b, "\n  %d of %d programs beat the default convention; none regress (the\n",
		improved, len(r.Rows))
	b.WriteString("  default competes in every selection). \"workload\" is the best single\n")
	b.WriteString("  convention by total cycles. Δ% = cycle reduction of the selected\n")
	b.WriteString("  convention over the default (positive is better); save/rest =\n")
	b.WriteString("  save/restore loads+stores and linkage = call-linkage cycles of the\n")
	b.WriteString("  selected convention.\n")
	if len(r.Rejected) > 0 {
		fmt.Fprintf(&b, "\n  %d candidate(s) rejected by Config.Validate():\n", len(r.Rejected))
		for _, rj := range r.Rejected {
			fmt.Fprintf(&b, "    %-*s  %s\n", width, rj.Spec, rj.Reason)
		}
	}
	if r.Attribution != "" {
		fmt.Fprintf(&b, "\nAttribution of the largest per-program win's save/restore delta on %q:\n%s",
			r.AttrProgram, r.Attribution)
	}
	return b.String()
}
