package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"chow88"
	"chow88/internal/benchprog"
	"chow88/internal/core"
	"chow88/internal/incr"
	"chow88/internal/mcode"
	"chow88/internal/pipeline"
)

// The edit workload's shape: seeded sequences of single-function edits
// on benchprog.Large and two suite programs that run briefly (so each
// sequence's final program is cheap to execute for the exact metrics).
var editBases = []string{"large", "ccom", "uopt"}

const (
	editSeqPerBase = 16
	editSeqLen     = 6
)

// editSeq is one edit sequence: the sources after each edit, the full
// compile each incremental rebuild must reproduce byte for byte, and the
// statefile the sequence rebuilds against.
type editSeq struct {
	name  string
	base  []byte // the base program's statefile
	srcs  []string
	wants []*mcode.Program
	state string
}

func editBase(name string) (string, error) {
	if name == "large" {
		return benchprog.Large().Source, nil
	}
	b := benchprog.Lookup(name)
	if b == nil {
		return "", fmt.Errorf("no suite program %q", name)
	}
	return b.Source, nil
}

// newEditSeq draws one sequence from rng, redrawing until every step
// compiles and the final program runs to the interpreter's output.
func newEditSeq(rng *rand.Rand, name, baseSrc string, mode core.Mode) (*editSeq, error) {
	for tries := 0; tries < 20; tries++ {
		seq := &editSeq{name: name}
		src := baseSrc
		var err error
		for step := 0; step < editSeqLen && err == nil; step++ {
			src, err = mutate(rng, src, step)
			var p *chow88.Program
			if err == nil {
				p, err = chow88.Compile(src, mode)
			}
			if err == nil {
				seq.srcs = append(seq.srcs, src)
				seq.wants = append(seq.wants, p.Code)
			}
		}
		if err != nil {
			continue
		}
		want, err := checkedOracle(src)
		if err != nil {
			continue
		}
		final := seq.wants[len(seq.wants)-1]
		res, err := (&chow88.Program{Code: final}).Run()
		if err != nil || !sameOutput(res.Output, want) {
			return nil, fmt.Errorf("%s: final program does not match the interpreter (%v)", name, err)
		}
		return seq, nil
	}
	return nil, fmt.Errorf("%s: no valid edit sequence in 20 draws", name)
}

// runEdit replays seeded edit sequences through chow88.CompileIncremental
// with the statefile on disk. Every sequence restarts from its base
// program's statefile; each rebuild is checked, off the clock, to be
// byte-identical to a full compile of the same source.
func runEdit(cfg *config) (*outcome, error) {
	mode := chow88.ModeC()
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("edit-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	out := newOutcome(editLimitMS, closedTailCap)
	// Set-up is the first build of the largest base, with no statefile.
	largeSrc := benchprog.Large().Source
	largeState := filepath.Join(dir, "large.state")
	if err := warmUps(out, func(int) error {
		if err := os.Remove(largeState); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		_, err := chow88.CompileIncremental(largeSrc, mode, largeState)
		return err
	}); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	var seqs []*editSeq
	var srcs []string
	for _, b := range editBases {
		src, err := editBase(b)
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, src)
		statePath := filepath.Join(dir, b+".state")
		if _, err := chow88.CompileIncremental(src, mode, statePath); err != nil {
			return nil, fmt.Errorf("base build %s: %w", b, err)
		}
		state, err := os.ReadFile(statePath)
		if err != nil {
			return nil, err
		}
		for k := 0; k < editSeqPerBase; k++ {
			seq, err := newEditSeq(rng, fmt.Sprintf("%s/%d", b, k), src, mode)
			if err != nil {
				return nil, err
			}
			seq.base = state
			seq.state = filepath.Join(dir, fmt.Sprintf("%s-%d.state", b, k))
			seqs = append(seqs, seq)
		}
	}
	// Cycles and save/restore come from the unedited bases, code size
	// from every image a pass rebuilds.
	ex, err := baseExact(srcs, mode)
	if err != nil {
		return nil, err
	}
	for _, seq := range seqs {
		for _, w := range seq.wants {
			ex.add(0, 0, len(w.Code))
		}
	}
	if cfg.corruptOracle {
		// The edit oracle is the full compile: perturb one expected image.
		w := *seqs[0].wants[0]
		w.DataSize++
		seqs[0].wants[0] = &w
	}
	rng.Shuffle(len(seqs), func(i, j int) { seqs[i], seqs[j] = seqs[j], seqs[i] })

	editPass := func(tr *tracer, o *outcome) error {
		for _, seq := range seqs {
			if err := os.WriteFile(seq.state, seq.base, 0o644); err != nil {
				return err
			}
			for i, src := range seq.srcs {
				id := o.attempted
				t0 := time.Now()
				code, err := rebuild(tr, id, src, mode, seq.state)
				d := time.Since(t0)
				ok := err == nil && sameImage(code, seq.wants[i])
				o.op(d, ok)
				switch {
				case err != nil:
					o.fail("%s step %d: %v", seq.name, i, err)
				case !ok:
					o.fail("%s step %d: incremental build differs from the full compile", seq.name, i)
				}
			}
		}
		return nil
	}
	if err := measureClosed(cfg, out, editPass, incrLayers); err != nil {
		return nil, err
	}
	out.setExact(ex)
	return out, nil
}

// rebuild is one edit's rebuild. Untraced it is chow88.CompileIncremental;
// traced it makes the same three calls that function makes — load the
// statefile, build incrementally, save the new state — one span each.
func rebuild(tr *tracer, id int, src string, mode core.Mode, statePath string) (*mcode.Program, error) {
	if tr == nil {
		p, err := chow88.CompileIncremental(src, mode, statePath)
		if err != nil {
			return nil, err
		}
		return p.Code, nil
	}
	root := tr.begin("op", -1, id)
	defer tr.end(root)
	sp := tr.begin("incr.load", root, id)
	st, _ := incr.Load(statePath) // a load failure means "no previous state"
	tr.end(sp)
	sp = tr.begin("incr.build", root, id)
	res, err := pipeline.BuildIncremental(src, mode, st)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	tr.count("incr.edits", 1)
	tr.count("incr.replanned", res.Replanned)
	tr.count("incr.reused", res.Reused)
	if !res.Incremental {
		tr.count("incr.fallbacks", 1)
	}
	if res.State != nil {
		sp = tr.begin("incr.save", root, id)
		err = res.State.Save(statePath)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("save state: %w", err)
		}
	}
	return res.Prog, nil
}

func incrLayers(l layers, tr *tracer) {
	l.set("incr.load_ms", tr.msPerCall("incr.load"))
	l.set("incr.save_ms", tr.msPerCall("incr.save"))
	l.set("incr.build_ms_per_edit", tr.msPerCall("incr.build"))
	if n := tr.counter("incr.edits"); n > 0 {
		l.set("incr.replanned_per_edit", float64(tr.counter("incr.replanned"))/float64(n))
		l.set("incr.reused_per_edit", float64(tr.counter("incr.reused"))/float64(n))
		l.set("incr.fallback_ratio", float64(tr.counter("incr.fallbacks"))/float64(n))
	}
}
