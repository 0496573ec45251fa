// Command chowtune explores the calling-convention design space the paper
// fixes by fiat: every candidate partition of the 20 allocatable registers
// into caller-saved and callee-saved classes (with 0–6 parameter registers)
// is tuned over the 13-program suite plus synthetic workloads. Each program
// trains once under the baseline with the trace profiler on; each
// candidate's profiled mode-C build of each program (validator on) runs once
// and is charged the trace's cycles, save/restore loads+stores and
// call-linkage cycles. The report picks a convention per program — the
// default competes in every selection, so no program regresses — and, from
// the same measurements, the best single convention for the whole workload.
// The largest per-program win's save/restore delta is attributed through the
// decision journal to the placement sites responsible.
//
// Usage:
//
//	chowtune [-sample n] [-gen n] [-workers n] [-conv spec]...
//
// -sample bounds the candidate set to a deterministic spread of the full
// enumeration (0 tunes over all of it); -gen adds synthetic programs whose
// calls carry up to 6 arguments; -conv (repeatable) adds explicit specs
// such as "caller=v1,a0-a3,t0-t9,s0-s7;callee=s8;params=a0-a3".
//
// Exit codes follow chowcc's classification: a malformed or incoherent -conv
// spec exits with the bad-convention code (12).
package main

import (
	"flag"
	"fmt"
	"os"

	"chow88"
	"chow88/internal/experiments"
	"chow88/internal/mach"
)

// convFlags collects repeated -conv occurrences (specs contain commas, so a
// single comma-separated flag would be ambiguous).
type convFlags []string

func (c *convFlags) String() string { return fmt.Sprint(*c) }
func (c *convFlags) Set(s string) error {
	*c = append(*c, s)
	return nil
}

func main() {
	sample := flag.Int("sample", 32, "candidate conventions sampled from the enumeration (0 = all)")
	gen := flag.Int("gen", 4, "synthetic progen workloads added to the 13-program suite")
	workers := flag.Int("workers", 0, "concurrent measurements (0 = GOMAXPROCS)")
	var conv convFlags
	flag.Var(&conv, "conv", "convention spec added to the candidate set (repeatable)")
	flag.Parse()

	cands := experiments.SampleConventions(*sample)
	for _, s := range conv {
		c, err := mach.ParseConvention(s)
		if err != nil {
			fatal(err)
		}
		cands = append(cands, c)
	}

	rep, err := experiments.Tune(cands, experiments.TuneWorkload(*gen), *workers)
	if err != nil {
		fatal(err)
	}
	fmt.Print(experiments.FormatTune(rep))
}

// fatal reports err and exits with its classified code, so scripted callers
// can tell a bad -conv spec (exit 12) from an internal failure.
func fatal(err error) {
	code, _ := chow88.ClassifyError(err)
	fmt.Fprintln(os.Stderr, "chowtune:", err)
	os.Exit(code)
}
