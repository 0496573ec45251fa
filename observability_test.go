package chow88

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"chow88/internal/benchprog"
	"chow88/internal/front"
	"chow88/internal/mcode"
	"chow88/internal/obs"
	"chow88/internal/sim"
)

// TestObsDifferential is the layer's core contract: turning tracing and
// metrics on must not change a single byte of generated code or a single
// trace statistic — observability observes, it never steers.
func TestObsDifferential(t *testing.T) {
	forceParallel(t)
	src := benchprog.All()[0].Source

	obs.End() // make sure the baseline really runs dark
	plain, err := Compile(src, ModeC())
	if err != nil {
		t.Fatal(err)
	}
	plainRes, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Report != nil || plainRes.Report != nil {
		t.Fatal("reports attached with observability disabled")
	}

	s := obs.Begin(obs.Options{Trace: true})
	defer obs.End()
	traced, err := Compile(src, ModeC())
	if err != nil {
		t.Fatal(err)
	}
	tracedRes, err := traced.Run()
	if err != nil {
		t.Fatal(err)
	}

	if plain.Disassemble() != traced.Disassemble() {
		t.Error("generated code changed when observability was enabled")
	}
	if plainRes.Stats != tracedRes.Stats {
		t.Errorf("trace stats changed when observability was enabled:\noff: %+v\n on: %+v",
			plainRes.Stats, tracedRes.Stats)
	}

	cr := traced.Report
	if cr == nil {
		t.Fatal("no CompileReport attached with a session active")
	}
	if cr.Counter("plan.funcs_planned") == 0 || cr.PhaseNanos("plan") == 0 {
		t.Errorf("compile report missing allocator activity:\n%s", cr.Table())
	}
	rr := tracedRes.Report
	if rr == nil {
		t.Fatal("no RunReport attached with a session active")
	}
	if rr.Engine != "fast" || tracedRes.Engine != "fast" {
		t.Errorf("engine = %q/%q, want fast", rr.Engine, tracedRes.Engine)
	}
	if rr.Counter("sim.block_entries") == 0 || len(rr.SuperHits) == 0 {
		t.Errorf("run report missing engine activity:\n%s", rr.Table())
	}
	if rr.Counter("sim.runs_fast") == 0 {
		t.Errorf("run report missing fast-engine selection:\n%s", rr.Table())
	}

	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) < 2 {
		t.Errorf("trace has %d events, want the pipeline's spans", len(f.TraceEvents))
	}
}

// TestFallbackReasonSurfaced checks satellite behavior around the fast
// engine's bail-out: an image the static verifier rejects must run on the
// reference engine with the reason on the result, not silently.
func TestFallbackReasonSurfaced(t *testing.T) {
	prog, err := Compile(benchprog.All()[0].Source, ModeBase())
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	// A function spanning [0,0) fails Verify but is unreachable — the
	// reference interpreter executes the image unchanged.
	bad := &mcode.Program{
		Code:     prog.Code.Code,
		Funcs:    append(append([]*mcode.FuncInfo{}, prog.Code.Funcs...), &mcode.FuncInfo{Name: "bogus"}),
		DataSize: prog.Code.DataSize,
	}

	s := obs.Begin(obs.Options{})
	defer obs.End()
	snap := s.Snap()
	res, err := sim.Run(bad, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "reference" {
		t.Errorf("engine = %q, want reference", res.Engine)
	}
	if !strings.Contains(res.FallbackReason, "bogus") {
		t.Errorf("FallbackReason = %q, want the verifier's complaint about func bogus", res.FallbackReason)
	}
	if res.Report == nil || res.Report.FallbackReason != res.FallbackReason {
		t.Error("RunReport does not carry the fallback reason")
	}
	if got := s.ReportSince(snap).Counter("sim.verify_fallbacks"); got != 1 {
		t.Errorf("sim.verify_fallbacks = %d, want 1", got)
	}
	if len(res.Output) != len(want.Output) {
		t.Fatalf("reference fallback output length %d, want %d", len(res.Output), len(want.Output))
	}
	for i := range res.Output {
		if res.Output[i] != want.Output[i] {
			t.Fatalf("reference fallback output diverged at %d", i)
		}
	}
}

// TestCompileProfiledReports checks that profile-feedback builds report the
// training window separately from the final build.
func TestCompileProfiledReports(t *testing.T) {
	obs.Begin(obs.Options{})
	defer obs.End()
	prog, err := compileProfiled(benchprog.All()[0].Source, ModeC())
	if err != nil {
		t.Fatal(err)
	}
	cr := prog.Report
	if cr == nil || cr.Training == nil {
		t.Fatal("profile-feedback build did not attach a report with a training window")
	}
	if cr.Training.PhaseNanos("run") == 0 {
		t.Errorf("training window shows no simulator run:\n%s", cr.Table())
	}
	if cr.Counter("plan.funcs_planned") == 0 {
		t.Errorf("final-build window shows no allocation:\n%s", cr.Table())
	}
}

// TestFrontCacheStats checks the always-on cache accessor (it must answer
// without any obs session).
func TestFrontCacheStats(t *testing.T) {
	obs.End()
	// A source no other test compiles, so the first build must miss.
	src := "// cachestats probe\nfunc main() { print(41 + 1); }\n"
	before := front.CacheStats()
	if _, err := Compile(src, ModeBase()); err != nil {
		t.Fatal(err)
	}
	mid := front.CacheStats()
	if mid.Misses != before.Misses+1 {
		t.Errorf("misses %d -> %d, want one more", before.Misses, mid.Misses)
	}
	if _, err := Compile(src, ModeBase()); err != nil {
		t.Fatal(err)
	}
	after := front.CacheStats()
	if after.Hits != mid.Hits+1 {
		t.Errorf("hits %d -> %d, want one more", mid.Hits, after.Hits)
	}
	if after.Entries == 0 || after.Cap == 0 {
		t.Errorf("cache occupancy unreported: %+v", after)
	}
}
