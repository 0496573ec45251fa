package main

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"strings"

	"chow88/internal/benchprog"
	"chow88/internal/front"
	"chow88/internal/interp"
	"chow88/internal/parser"
	"chow88/internal/progen"
	"chow88/internal/sema"
)

// interpret runs src on the reference interpreter, the oracle every
// compiled output is checked against.
func interpret(src string, opts interp.Options) ([]int64, error) {
	tree, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := sema.Check(tree)
	if err != nil {
		return nil, err
	}
	res, err := interp.Run(info, opts)
	if err != nil {
		return nil, err
	}
	return res.Output, nil
}

// expect returns the oracle's output for src, perturbed when the run is
// the self-test's deliberately wrong oracle.
func (c *config) expect(out []int64) []int64 {
	if !c.corruptOracle {
		return out
	}
	return append(append([]int64(nil), out...), -1)
}

// expectImage returns the expected disassembly of an image, perturbed
// when the run is the self-test's deliberately wrong image oracle. The
// perturbation leaves the image's size alone, so only a check of the
// whole image can catch it.
func (c *config) expectImage(disasm string) string {
	if !c.corruptImage {
		return disasm
	}
	return strings.Replace(disasm, "\n", "\n;\n", 1)
}

func sameOutput(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tag appends a comment, giving src a new front-cache key without
// changing the program.
func tag(src, label string) string { return src + "\n// " + label + "\n" }

// generated is one program of a seeded input set.
type generated struct {
	name string
	src  string
	want []int64
}

// progenShapes spread generated programs from the default shape up to
// about 30 functions, all with recursion and indirect calls.
var progenShapes = []int{6, 10, 15, 20, 30}

// progenPool draws n terminating, trap-free generated programs whose
// interpretation stays within a small step budget, so that checking each
// compiled program's output stays cheap next to compiling it.
func progenPool(rng *rand.Rand, n int) ([]generated, error) {
	var pool []generated
	for tries := 0; len(pool) < n; tries++ {
		if tries > 20*n {
			return nil, errors.New("progen: too few programs within the oracle budget")
		}
		cfg := progen.DefaultConfig()
		cfg.Funcs = progenShapes[len(pool)%len(progenShapes)]
		seed := rng.Int63()
		src := progen.Generate(seed, cfg)
		want, err := interpret(src, interp.Options{MaxSteps: 300_000, MaxDepth: 2000})
		if err != nil {
			continue
		}
		pool = append(pool, generated{name: fmt.Sprintf("progen/f%d/%d", cfg.Funcs, seed), src: src, want: want})
	}
	return pool, nil
}

// largeVariants derives n seeded variants of benchprog.Large, each three
// random edits away from it.
func largeVariants(rng *rand.Rand, n int) ([]generated, error) {
	base := benchprog.Large().Source
	var out []generated
	for tries := 0; len(out) < n; tries++ {
		if tries > 20*n {
			return nil, errors.New("large variants: too few valid variants")
		}
		src := base
		var err error
		for k := 0; k < 3 && err == nil; k++ {
			src, err = mutate(rng, src, 1000*len(out)+k)
		}
		if err != nil {
			return nil, err
		}
		want, err := checkedOracle(src)
		if err != nil {
			continue
		}
		out = append(out, generated{name: fmt.Sprintf("large/%d", len(out)), src: src, want: want})
	}
	return out, nil
}

// checkedOracle interprets an edited program. Edits can make a program
// loop, trap or flood its output, so such a draw is rejected as input.
func checkedOracle(src string) ([]int64, error) {
	want, err := interpret(src, interp.Options{MaxSteps: 50_000_000})
	if err != nil {
		return nil, err
	}
	if len(want) > 100_000 {
		return nil, errors.New("output too long")
	}
	return want, nil
}

// The edit classes below are the ones the incremental tests exercise:
// a body edit, a signature edit (parameter rename), a new call edge and a
// new function with a caller.
const (
	editBody = iota
	editSignature
	editCallEdge
	editNewFunc
	numEditClasses
)

var (
	callRe   = regexp.MustCompile(`([A-Za-z_][A-Za-z0-9_]*)\s*\(`)
	notCalls = map[string]bool{"print": true, "if": true, "while": true, "for": true, "return": true}
)

// signature is a parsed function head.
type signature struct {
	params     []string // parameter names
	allInt     bool     // every parameter is an int
	returnsInt bool
}

func parseHead(head string) (signature, bool) {
	open := strings.Index(head, "(")
	if open < 0 {
		return signature{}, false
	}
	depth, closeAt := 0, -1
	var parts []string
	last := open + 1
	for i := open; i < len(head) && closeAt < 0; i++ {
		switch head[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				closeAt = i
				parts = append(parts, head[last:i])
			}
		case ',':
			if depth == 1 {
				parts = append(parts, head[last:i])
				last = i + 1
			}
		}
	}
	if closeAt < 0 {
		return signature{}, false
	}
	s := signature{allInt: true, returnsInt: strings.TrimSpace(head[closeAt+1:]) == "int"}
	for _, p := range parts {
		f := strings.Fields(p)
		if len(f) == 0 {
			continue
		}
		s.params = append(s.params, f[0])
		if strings.Join(f[1:], " ") != "int" {
			s.allInt = false
		}
	}
	return s, true
}

// isLeaf reports whether a function's body makes no calls, so that a new
// call to it cannot recurse back into its caller.
func isLeaf(c front.Chunk) bool {
	body := c.Text[strings.Index(c.Text, "{"):]
	for _, m := range callRe.FindAllStringSubmatch(body, -1) {
		if !notCalls[m[1]] {
			return false
		}
	}
	return true
}

// mutate applies one seeded edit to src; step makes inserted names and
// values unique within a sequence.
func mutate(rng *rand.Rand, src string, step int) (string, error) {
	chunks, err := front.ChunkSource(src)
	if err != nil {
		return "", err
	}
	var fns []int
	for i, c := range chunks {
		if c.Kind == front.ChunkFunc {
			fns = append(fns, i)
		}
	}
	if len(fns) == 0 {
		return "", errors.New("mutate: no functions")
	}
	insert := func(i int, stmt string) {
		c := chunks[i]
		brace := strings.Index(c.Text, "{")
		chunks[i].Text = c.Text[:brace+1] + "\n  " + stmt + c.Text[brace+1:]
	}
	anyFn := func() int { return fns[rng.Intn(len(fns))] }
	// candidates lists non-main functions that satisfy ok, in order.
	candidates := func(ok func(front.Chunk, signature) bool) []int {
		var out []int
		for _, i := range fns {
			c := chunks[i]
			if s, parsed := parseHead(c.Head); c.Name != "main" && parsed && ok(c, s) {
				out = append(out, i)
			}
		}
		return out
	}

	switch rng.Intn(numEditClasses) {
	case editSignature:
		cs := candidates(func(_ front.Chunk, s signature) bool { return len(s.params) > 0 })
		if len(cs) > 0 {
			i := cs[rng.Intn(len(cs))]
			s, _ := parseHead(chunks[i].Head)
			re := regexp.MustCompile(`\b` + regexp.QuoteMeta(s.params[0]) + `\b`)
			to := fmt.Sprintf("pq%d", step)
			chunks[i].Text = re.ReplaceAllString(chunks[i].Text, to)
			chunks[i].Head = re.ReplaceAllString(chunks[i].Head, to)
			break
		}
		insert(anyFn(), fmt.Sprintf("print(%d);", 200000+step))
	case editCallEdge:
		cs := candidates(func(c front.Chunk, s signature) bool { return s.allInt && isLeaf(c) })
		if len(cs) > 0 {
			callee := chunks[cs[rng.Intn(len(cs))]]
			s, _ := parseHead(callee.Head)
			args := make([]string, len(s.params))
			for k := range args {
				args[k] = fmt.Sprint(1 + rng.Intn(4))
			}
			call := fmt.Sprintf("%s(%s)", callee.Name, strings.Join(args, ", "))
			if s.returnsInt {
				call = "print(" + call + ")"
			}
			insert(anyFn(), call+";")
			break
		}
		insert(anyFn(), fmt.Sprintf("print(%d);", 300000+step))
	case editNewFunc:
		name := fmt.Sprintf("zq%d", step)
		nc := front.Chunk{
			Name: name,
			Kind: front.ChunkFunc,
			Text: fmt.Sprintf("func %s(a int) int { return a * 2 + %d; }", name, step),
		}
		caller := anyFn()
		insert(caller, fmt.Sprintf("print(%s(%d));", name, step))
		at := anyFn()
		chunks = append(chunks[:at], append([]front.Chunk{nc}, chunks[at:]...)...)
	default:
		insert(anyFn(), fmt.Sprintf("print(%d);", 100000+step))
	}
	var b strings.Builder
	for _, c := range chunks {
		b.WriteString(c.Text)
		b.WriteString("\n\n")
	}
	return b.String(), nil
}
