package experiments

import (
	"fmt"
	"strings"
	"testing"

	"chow88/internal/benchprog"
	"chow88/internal/mach"
)

// smokeWorkload is a 3-program cut of the suite, small enough that tuner
// tests stay fast while still exercising multi-program aggregation.
func smokeWorkload() []Workload {
	var out []Workload
	for _, b := range benchprog.All()[:3] {
		out = append(out, Workload{Name: b.Name, Source: b.Source})
	}
	return out
}

// smokeCandidates spans the partition space ends plus the paper's point.
func smokeCandidates() []*mach.Config {
	return []*mach.Config{
		mach.Boundary(0, 4),
		mach.Boundary(20, 0),
		mach.Boundary(9, 6),
		mach.Boundary(14, 2),
	}
}

func TestTuneSmoke(t *testing.T) {
	rep, err := Tune(smokeCandidates(), smokeWorkload(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Default is injected even when absent from the candidate list.
	if len(rep.Candidates) != 5 || rep.Candidates[0].Spec() != mach.Default().Spec() {
		t.Fatalf("candidates = %d, first %s; want 5 (4 candidates + default), default first",
			len(rep.Candidates), rep.Candidates[0].Spec())
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rep.Rows))
	}
	var base int64
	changed := false
	for _, r := range rep.Rows {
		if r.BaseCycles <= 0 || r.BestCycles > r.BaseCycles {
			t.Errorf("%s: default %d, best %d (%s)", r.Program, r.BaseCycles, r.BestCycles, r.Best.Spec())
		}
		base += r.BaseCycles
		changed = changed || r.Best.Spec() != mach.Default().Spec()
	}
	// The whole-workload line is read off the same grid: its default
	// column total is the sum of the per-program defaults.
	if w := rep.Whole; w.Program != "workload" || w.BaseCycles != base || w.BestCycles > w.BaseCycles {
		t.Errorf("whole-workload row = %+v, want default total %d", w, base)
	}
	out := FormatTune(rep)
	for _, want := range []string{"Convention tuning", mach.Default().Spec(), "save/rest", "workload"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	checkAligned(t, out)
	// The largest per-program win must be attributed through the decision
	// journal whenever some program's pick differs from the default.
	if changed && !strings.Contains(rep.Attribution, "explaindiff:") {
		t.Errorf("no attribution although a program left the default:\n%s", out)
	}
}

// checkAligned requires every table row of a rendered report to put its
// column separators at the same positions as the header.
func checkAligned(t *testing.T, out string) {
	t.Helper()
	var want []int
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "  ") || !strings.Contains(line, " | ") && !strings.Contains(line, "-+-") {
			continue
		}
		var seps []int
		for i, r := range []rune(line) {
			if r == '|' || r == '+' {
				seps = append(seps, i)
			}
		}
		if want == nil {
			want = seps
		} else if fmt.Sprint(seps) != fmt.Sprint(want) {
			t.Errorf("misaligned row (separators at %v, header at %v):\n%s", seps, want, line)
		}
	}
	if want == nil {
		t.Errorf("no table rows in:\n%s", out)
	}
}

// TestTuneDeterministic pins the byte-determinism contract: the rendered
// report is identical for a sequential and a parallel tuner run.
func TestTuneDeterministic(t *testing.T) {
	wl := smokeWorkload()
	cands := smokeCandidates()
	seq, err := Tune(cands, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Tune(cands, wl, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := FormatTune(seq), FormatTune(par); a != b {
		t.Errorf("tune report depends on worker count:\n--- workers=1\n%s\n--- workers=4\n%s", a, b)
	}
}

// TestTuneRejectsInvalid proves an incoherent candidate is refused by
// Config.Validate() with its named reason instead of being compiled, and
// that the rejection list stays aligned under the longest spec.
func TestTuneRejectsInvalid(t *testing.T) {
	bad := &mach.Config{
		Name:        "overlap",
		CallerSaved: mach.SetOf(mach.T0, mach.S0),
		CalleeSaved: mach.SetOf(mach.S0),
		Params:      []mach.Reg{mach.A0},
	}
	rep, err := Tune([]*mach.Config{bad}, smokeWorkload()[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rejected) != 1 || len(rep.Candidates) != 1 {
		t.Fatalf("rejected = %d, measured = %d; want 1 and 1 (the default)", len(rep.Rejected), len(rep.Candidates))
	}
	if !strings.Contains(rep.Rejected[0].Reason, mach.ReasonClassOverlap) {
		t.Errorf("rejection reason %q does not name %s", rep.Rejected[0].Reason, mach.ReasonClassOverlap)
	}
	out := FormatTune(rep)
	if !strings.Contains(out, mach.ReasonClassOverlap) {
		t.Error("rendered report drops the rejection reason")
	}
	checkAligned(t, out)
}

// TestSameOutput covers the one output check every experiment uses.
func TestSameOutput(t *testing.T) {
	want := []int64{1, 2, 3}
	for _, tc := range []struct {
		name string
		got  []int64
		err  string
	}{
		{"equal", []int64{1, 2, 3}, ""},
		{"shorter", []int64{1, 2}, "output diverged: 2 values, want 3"},
		{"longer", []int64{1, 2, 3, 4}, "output diverged: 4 values, want 3"},
		{"differing", []int64{1, 5, 3}, "output diverged at 1: got 5, want 2"},
		{"empty", nil, "output diverged: 0 values, want 3"},
	} {
		err := sameOutput(tc.got, want)
		if got := fmt.Sprint(err); tc.err == "" && err != nil || tc.err != "" && got != tc.err {
			t.Errorf("%s: sameOutput = %v, want %q", tc.name, err, tc.err)
		}
	}
}

func TestSampleConventions(t *testing.T) {
	got := SampleConventions(10)
	if len(got) == 0 || len(got) > 10 {
		t.Fatalf("sample size = %d", len(got))
	}
	def := mach.Default().Spec()
	found := false
	seen := map[string]bool{}
	for _, c := range got {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Spec(), err)
		}
		if seen[c.Spec()] {
			t.Errorf("duplicate sample %s", c.Spec())
		}
		seen[c.Spec()] = true
		if c.Spec() == def {
			found = true
		}
	}
	if !found {
		t.Error("Default() missing from sample")
	}
	if all := mach.Enumerate(-1); len(SampleConventions(0)) != len(all) {
		t.Error("SampleConventions(0) should return the full enumeration")
	}
}

// TestTuneNeverRegresses is the acceptance gate for per-program
// selection: over the whole suite, the chosen convention never loses to the
// default (which competes in every selection) and wins outright somewhere.
func TestTuneNeverRegresses(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes the full suite")
	}
	cands := []*mach.Config{
		mach.Boundary(5, 4),
		mach.Boundary(13, 4),
		mach.Boundary(9, 6),
		mach.Boundary(11, 2),
		mach.Boundary(20, 4),
	}
	rep, err := Tune(cands, TuneWorkload(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(benchprog.All()) {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	improved := 0
	for _, r := range rep.Rows {
		if r.BaseCycles == 0 {
			t.Errorf("%s: default convention was not measured", r.Program)
		}
		if r.BestCycles > r.BaseCycles {
			t.Errorf("%s: selection regressed: best %d > default %d (%s)",
				r.Program, r.BestCycles, r.BaseCycles, r.Best.Spec())
		}
		if r.BestCycles < r.BaseCycles {
			improved++
		}
	}
	if improved == 0 {
		t.Error("no program beat the default convention")
	}
	out := FormatTune(rep)
	if !strings.Contains(out, "Convention tuning") || !strings.Contains(out, rep.Rows[0].Program) {
		t.Errorf("tune report:\n%s", out)
	}
	if improved > 0 && !strings.Contains(rep.Attribution, "explaindiff:") {
		t.Errorf("no attribution on %q:\n%s", rep.AttrProgram, out)
	}
}

// TestTuneWorkload checks the seed filter keeps its training run: a kept
// synthetic program is tunable and Tune does not train it again.
func TestTuneWorkload(t *testing.T) {
	wl := TuneWorkload(1)
	if n := len(benchprog.All()); len(wl) != n+1 || wl[n].trained == nil || wl[0].trained != nil {
		t.Fatalf("workload = %d programs; want the suite plus one trained synthetic program", len(wl))
	}
}
