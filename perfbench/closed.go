package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"chow88"
	"chow88/internal/benchprog"
	"chow88/internal/core"
	"chow88/internal/front"
	"chow88/internal/interp"
	"chow88/internal/sim"
)

// Latency limits, in ms, that goodput_rps counts an operation against.
// Each sits well above the slowest operation the workload's inputs make
// on a 2-CPU host, so that it catches stalls rather than input shapes.
const (
	suiteLimitMS   = 250
	compileLimitMS = 100
	editLimitMS    = 100
)

// closedTailCap is the highest percentile a closed-loop workload's
// op_tail_ms is reported at. At 35 s a run makes 3000 to 7000
// operations, so the tail rule would give p99 and reach p99.9 only past
// 10000; the cap keeps a faster program from moving the tail to another
// rung.
const closedTailCap = 99

// setupReps is how many times each workload repeats its set-up; setup_s
// is the median.
const setupReps = 25

func (c *config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// pass runs one whole pass of a closed-loop workload, recording its
// operations on o. tr is nil on untraced passes.
type pass func(tr *tracer, o *outcome) error

// closedLoop runs whole passes until d of wall clock has gone by. Each
// pass is one window of the outcome: its operations, throughput, peak
// resident set, the host's CPU steal while it ran and its slowness, from
// calibrations before and after it.
func closedLoop(d time.Duration, p pass, tr *tracer, o *outcome) error {
	start := time.Now()
	before := calibrate()
	for {
		o.windows = append(o.windows, window{})
		resetPeakRSS()
		steal := startSteal()
		if err := p(tr, o); err != nil {
			return err
		}
		w := &o.windows[len(o.windows)-1]
		w.steal = steal.share()
		rss, err := vmHWM(os.Getpid())
		if err != nil {
			return err
		}
		w.rss = rss
		after := calibrate()
		w.slow = slowness(before, after)
		before = after
		if w.timed > 0 {
			w.rate = float64(len(w.lat)) / w.timed.Seconds()
		}
		if time.Since(start) >= d {
			return nil
		}
	}
}

// op records one timed operation of the current pass.
func (o *outcome) op(d time.Duration, ok bool) {
	o.attempted++
	w := &o.windows[len(o.windows)-1]
	w.timed += d
	w.lat = append(w.lat, ms(d))
	w.ok = append(w.ok, ok)
}

// measureClosed runs a closed-loop workload with one operation in
// flight. An untraced run measures for the whole duration. A traced run
// measures an untraced half, then a traced half whose spans give the
// per-layer metrics (fill), and compares the two halves' throughput.
func measureClosed(cfg *config, out *outcome, p pass, fill func(layers, *tracer)) error {
	if !cfg.trace {
		return closedLoop(cfg.duration(), p, nil, out)
	}
	half := cfg.duration() / 2
	plain := newOutcome(out.limitMS, out.tailCap)
	c0, r0 := front.CacheStats(), sampleRuntime()
	if err := closedLoop(half, p, nil, plain); err != nil {
		return err
	}
	r1, c1 := sampleRuntime(), front.CacheStats()

	traced := newOutcome(out.limitMS, out.tailCap)
	tr := newTracer()
	if err := closedLoop(half, p, tr, traced); err != nil {
		return err
	}
	l := newLayers()
	fill(l, tr)
	if lookups := (c1.Hits - c0.Hits) + (c1.Misses - c0.Misses); lookups > 0 {
		l.set("front.cache_hit_ratio", float64(c1.Hits-c0.Hits)/float64(lookups))
	}
	l.setRuntime(r0, r1, plain.attempted)
	if t := traced.throughput(); t > 0 {
		l.set("trace.overhead_ratio", plain.throughput()/t)
	}
	out.layers = l
	for _, o := range []*outcome{plain, traced} {
		out.attempted += o.attempted
		out.failed += o.failed
		out.mismatches = append(out.mismatches, o.mismatches...)
	}
	return tr.write(filepath.Join(cfg.workdir, "traces"), fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
}

// paperModes are the six modes of Tables 1 and 2, baseline first.
func paperModes() []core.Mode {
	return []core.Mode{chow88.ModeBase(), chow88.ModeA(), chow88.ModeB(), chow88.ModeC(), chow88.ModeD(), chow88.ModeE()}
}

// warmUps repeats f setupReps times, recording each duration as set-up,
// between two calibrations.
func warmUps(out *outcome, f func(i int) error) error {
	before := calibrate()
	defer func() { out.setupSlow = slowness(before, calibrate()) }()
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(t0))
	}
	return nil
}

// compileAndRun is the warm-up step shared by the in-process workloads.
func compileAndRun(src string) error {
	p, err := chow88.Compile(src, chow88.ModeC())
	if err != nil {
		return err
	}
	_, err = p.Run()
	return err
}

// runSuite is the paper's experiment: the 13 suite programs under the six
// modes, each compiled and run once, in a seeded program order. Every
// pass starts with none of the suite sources in the front cache, as a
// fresh experiments process does, so each program misses once and then
// hits five times.
func runSuite(cfg *config) (*outcome, error) {
	progs := benchprog.All()
	want := make([][]int64, len(progs))
	for i, b := range progs {
		out, err := interpret(b.Source, interp.Options{})
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", b.Name, err)
		}
		want[i] = cfg.expect(out)
	}
	modes := paperModes()
	out := newOutcome(suiteLimitMS, closedTailCap)
	large := benchprog.Large().Source
	if err := warmUps(out, func(i int) error { return compileAndRun(tag(large, fmt.Sprintf("warm-up %d", i))) }); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	passNo := 0
	var first *exact
	suitePass := func(tr *tracer, o *outcome) error {
		passNo++
		var e exact
		for _, pi := range rng.Perm(len(progs)) {
			src := tag(progs[pi].Source, fmt.Sprintf("pass %d", passNo))
			for _, mode := range modes {
				id := o.attempted
				t0 := time.Now()
				root := tr.begin("op", -1, id)
				code, demoted, err := compileProgram(tr, id, root, src, mode)
				var res *sim.Result
				if err == nil {
					res, err = runProgram(tr, id, root, code)
				}
				tr.end(root)
				d := time.Since(t0)
				if err == nil {
					err = offClock(tr, id, src, mode, code, demoted, res)
				}
				ok := err == nil && sameOutput(res.Output, want[pi])
				o.op(d, ok)
				switch {
				case err != nil:
					o.fail("%s %s: %v", progs[pi].Name, mode.Name, err)
				case !ok:
					o.fail("%s %s: output differs from the interpreter", progs[pi].Name, mode.Name)
				default:
					e.add(res.Stats.Cycles, res.Stats.SaveRestoreLS(), len(code.Code))
				}
			}
		}
		if first == nil {
			first = &e
		} else if e != *first {
			o.fail("pass %d: exact metrics %+v differ from the first pass's %+v", passNo, e, *first)
		}
		return nil
	}
	if err := measureClosed(cfg, out, suitePass, compileLayers); err != nil {
		return nil, err
	}
	if first != nil {
		out.setExact(*first)
	}
	return out, nil
}

// The compile workload cycles through this many distinct programs; a
// pass compiles each once. Half as many let the median program, and so
// op_p50_ms, move with the seed (a ten-seed spread of 0.09 against 0.03
// for ops_per_s).
const (
	compilePoolProgen = 80
	compilePoolLarge  = 16
)

// runCompile compiles fresh seeded sources once each under mode C with
// the validator on and the parallel pipeline. Each source carries a
// unique tag, so the front cache always misses. Each program is run and
// checked against the interpreter only after its compile was timed.
func runCompile(cfg *config) (*outcome, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	pool, err := progenPool(rng, compilePoolProgen)
	if err != nil {
		return nil, err
	}
	variants, err := largeVariants(rng, compilePoolLarge)
	if err != nil {
		return nil, err
	}
	pool = append(pool, variants...)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for i := range pool {
		pool[i].want = cfg.expect(pool[i].want)
	}

	mode := chow88.ModeC()
	out := newOutcome(compileLimitMS, closedTailCap)
	large := benchprog.Large().Source
	if err := warmUps(out, func(i int) error {
		_, err := chow88.Compile(tag(large, fmt.Sprintf("warm-up %d", i)), mode)
		return err
	}); err != nil {
		return nil, err
	}
	base, err := baseExact([]string{large}, mode)
	if err != nil {
		return nil, err
	}

	passNo := 0
	var first *exact
	compilePass := func(tr *tracer, o *outcome) error {
		passNo++
		var e exact
		for _, g := range pool {
			src := tag(g.src, fmt.Sprintf("pass %d", passNo))
			id := o.attempted
			t0 := time.Now()
			root := tr.begin("op", -1, id)
			code, demoted, err := compileProgram(tr, id, root, src, mode)
			tr.end(root)
			d := time.Since(t0)
			var res *sim.Result
			if err == nil {
				res, err = runProgram(tr, id, -1, code)
			}
			if err == nil {
				err = offClock(tr, id, src, mode, code, demoted, res)
			}
			ok := err == nil && sameOutput(res.Output, g.want)
			o.op(d, ok)
			switch {
			case err != nil:
				o.fail("%s: %v", g.name, err)
			case !ok:
				o.fail("%s: output differs from the interpreter", g.name)
			default:
				e.add(0, 0, len(code.Code))
			}
		}
		if first == nil {
			first = &e
		} else if e != *first {
			o.fail("pass %d: code size %+v differs from the first pass's %+v", passNo, e, *first)
		}
		return nil
	}
	if err := measureClosed(cfg, out, compilePass, compileLayers); err != nil {
		return nil, err
	}
	if first != nil {
		base.codeWords = first.codeWords
	}
	out.setExact(base)
	return out, nil
}

// baseExact compiles and runs a workload's fixed base programs, whose
// cycles and save/restore counts are the workload's paper metrics. The
// seeded programs derived from them are not summed: generated programs'
// cycle and save/restore counts are heavy-tailed, so their sum would
// measure the seed rather than the compiler.
func baseExact(srcs []string, mode core.Mode) (exact, error) {
	var e exact
	for _, src := range srcs {
		p, err := chow88.Compile(src, mode)
		if err != nil {
			return e, err
		}
		res, err := p.Run()
		if err != nil {
			return e, err
		}
		e.add(res.Stats.Cycles, res.Stats.SaveRestoreLS(), 0)
	}
	return e, nil
}
