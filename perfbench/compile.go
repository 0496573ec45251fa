package main

import (
	"context"
	"errors"
	"fmt"
	"reflect"

	"chow88"
	"chow88/internal/check"
	"chow88/internal/codegen"
	"chow88/internal/core"
	"chow88/internal/front"
	"chow88/internal/mcode"
	"chow88/internal/pipeline"
	"chow88/internal/sim"
)

// compileProgram compiles src like chow88.Compile. With a tracer it makes
// the same calls chow88.CompileCtx makes, one span per layer, and reports
// whether the pipeline demoted any function.
func compileProgram(tr *tracer, op, parent int, src string, mode core.Mode) (*mcode.Program, bool, error) {
	if tr == nil {
		p, err := chow88.Compile(src, mode)
		if err != nil {
			return nil, false, err
		}
		return p.Code, false, nil
	}
	sp := tr.begin("front", parent, op)
	mod, err := front.Module(src, mode.Optimize, !mode.Sequential)
	tr.end(sp)
	if err != nil {
		return nil, false, err
	}
	sp = tr.begin("pipeline", parent, op)
	_, code, demotions, err := pipeline.BuildCtx(context.Background(), mod, mode)
	tr.end(sp)
	if err != nil {
		return nil, false, err
	}
	tr.count("pipeline.demotions", len(demotions))
	return code, len(demotions) > 0, nil
}

// runProgram executes code once on the default engine: on a fresh image,
// the cold run, predecode and translation included.
func runProgram(tr *tracer, op, parent int, code *mcode.Program) (*sim.Result, error) {
	sp := tr.begin("sim.cold", parent, op)
	res, err := sim.Run(code, sim.Options{})
	tr.end(sp)
	if err == nil && res.FallbackReason != "" {
		tr.count("sim.fallback_runs", 1)
	}
	return res, err
}

// offClock makes a traced operation's extra calls once its clock has
// stopped, so that traced and untraced operations time the same calls.
// It repeats the middle and back end of code's compile decomposed — plan,
// check the plan, generate code, check the code — so that the pipeline's
// own orchestration time can be told apart from the layers it calls; the
// decomposed build must produce the same image unless the pipeline
// demoted a function. When the operation ran code (res), a second, warm
// run of the same image follows and must agree with it.
func offClock(tr *tracer, op int, src string, mode core.Mode, code *mcode.Program, demoted bool, res *sim.Result) error {
	if tr == nil {
		return nil
	}
	mod, err := front.Module(src, mode.Optimize, !mode.Sequential)
	if err != nil {
		return err
	}
	dec := tr.begin("decomposed", -1, op)
	sp := tr.begin("core.plan", dec, op)
	pp := core.PlanModule(mod, mode)
	tr.end(sp)
	sp = tr.begin("check.plan", dec, op)
	viols := check.Plan(pp)
	tr.end(sp)
	sp = tr.begin("codegen", dec, op)
	code2, err := codegen.Generate(pp)
	tr.end(sp)
	if err != nil {
		tr.end(dec)
		return fmt.Errorf("decomposed codegen: %w", err)
	}
	sp = tr.begin("check.code", dec, op)
	viols = append(viols, check.Code(pp, code2)...)
	tr.end(sp)
	tr.end(dec)
	tr.count("check.violations", len(viols))
	if !demoted && !sameImage(code, code2) {
		return errors.New("decomposed plan/check/codegen/check build differs from pipeline.BuildCtx")
	}
	if res == nil {
		return nil
	}
	sp = tr.begin("sim.warm", -1, op)
	warm, err := sim.Run(code, sim.Options{})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("warm run: %w", err)
	}
	if !reflect.DeepEqual(warm.Stats, res.Stats) || !reflect.DeepEqual(warm.Output, res.Output) {
		return errors.New("warm run disagrees with cold run")
	}
	tr.count("sim.warm_instrs", int(warm.Stats.Instrs))
	return nil
}

// sameImage reports whether two linked images are byte-identical.
func sameImage(a, b *mcode.Program) bool {
	return a.Disassemble() == b.Disassemble() && reflect.DeepEqual(a, b)
}

// compileLayers fills the front, core, check, codegen, pipeline and sim
// metrics from a traced run's spans.
func compileLayers(l layers, tr *tracer) {
	l.set("front.ms_per_call", tr.msPerCall("front"))
	l.set("core.plan_ms_per_call", tr.msPerCall("core.plan"))
	l.set("check.plan_ms_per_call", tr.msPerCall("check.plan"))
	l.set("check.code_ms_per_call", tr.msPerCall("check.code"))
	l.set("check.violations", float64(tr.counter("check.violations")))
	l.set("codegen.ms_per_call", tr.msPerCall("codegen"))
	if n, whole := tr.layerTime("pipeline"); n > 0 {
		var sum float64
		for _, name := range []string{"core.plan", "check.plan", "codegen", "check.code"} {
			_, d := tr.layerTime(name)
			sum += ms(d)
		}
		l.set("pipeline.self_ms_per_call", (ms(whole)-sum)/float64(n))
	}
	l.set("pipeline.demotions", float64(tr.counter("pipeline.demotions")))
	simLayers(l, tr)
}

// simLayers fills the simulator metrics from cold and warm run spans.
func simLayers(l layers, tr *tracer) {
	nc, cold := tr.layerTime("sim.cold")
	nw, warm := tr.layerTime("sim.warm")
	if nc > 0 {
		l.set("sim.cold_ms_per_run", ms(cold)/float64(nc))
	}
	if nw > 0 {
		l.set("sim.warm_ms_per_run", ms(warm)/float64(nw))
		l.set("sim.minstr_per_s", float64(tr.counter("sim.warm_instrs"))/warm.Seconds()/1e6)
	}
	if nc > 0 && nw > 0 {
		c, w := ms(cold)/float64(nc), ms(warm)/float64(nw)
		l.set("sim.cold_share", (c-w)/c)
	}
	l.set("sim.fallback_runs", float64(tr.counter("sim.fallback_runs")))
}
