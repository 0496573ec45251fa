package main

import (
	"runtime"
	"slices"
	"strconv"
	"time"
)

// Host speed calibration.
//
// A shared virtual machine's speed drifts with what its neighbours run:
// over a few minutes the same pass of the suite took anywhere from 1.0x
// to 1.7x its quiet time, with no CPU steal reported, because neighbours
// contend for the host's caches and memory bandwidth. A fixed kernel of
// compiler-like work that calls nothing of chow88 slows down with it.
// The benchmark times that kernel between its timed windows and reports
// every end-to-end timing at a nominal host speed: a run's latencies are
// divided, and its rates multiplied, by its slowness, the median over its
// windows of the kernel's time around each over refNominalMS. The raw
// figures are printed on a '#' line before the result.

// refNominalMS is the kernel's time on a quiet 2-vCPU host; it only sets
// the scale of the reported figures.
const refNominalMS = 30.0

// refReps is how many kernel runs make one calibration; their median is
// its time.
const refReps = 3

// The kernel's sizes: graph nodes, symbol-table probes, sorted ints and
// interpreter steps.
const (
	refNodes   = 20000
	refLookups = 40000
	refInts    = 100000
	refCode    = 4096
	refSteps   = 2000000
)

type refNode struct {
	kids []*refNode
	val  int
	name string
}

// refSink keeps the kernel's result live.
var refSink int

// kernel does a fixed amount of compiler-like work: it builds a graph of
// heap nodes with names and walks it, fills and probes a symbol table,
// sorts, and steps a small bytecode interpreter. Like a compiler it
// allocates: about 5 MB, fresh on every call.
func kernel() {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	sum := 0

	nodes := make([]*refNode, refNodes)
	for i := range nodes {
		n := &refNode{val: int(next() % 1000), name: "v" + strconv.Itoa(i)}
		if i > 0 {
			for k := 0; k < 3; k++ {
				p := nodes[next()%uint64(i)]
				p.kids = append(p.kids, n)
			}
		}
		nodes[i] = n
	}
	seen := make(map[*refNode]bool, len(nodes))
	stack := []*refNode{nodes[0]}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		sum += n.val
		stack = append(stack, n.kids...)
	}

	syms := make(map[string]int)
	for _, n := range nodes {
		syms[n.name] += n.val
	}
	for i := 0; i < refLookups; i++ {
		sum += syms["v"+strconv.Itoa(int(next()%(refNodes*5/4)))]
	}

	ints := make([]int, refInts)
	for i := range ints {
		ints[i] = int(next() >> 1)
	}
	slices.Sort(ints)
	sum += ints[refInts/2]

	code := make([]byte, refCode)
	for i := range code {
		code[i] = byte(next())
	}
	var regs [16]int
	pc := 0
	for step := 0; step < refSteps; step++ {
		op := code[pc]
		a, b := op>>4&15, op&15
		switch op >> 2 & 3 {
		case 0:
			regs[a] += regs[b] + 1
		case 1:
			regs[a] ^= regs[b] << 1
		case 2:
			if regs[a] > regs[b] {
				pc = (pc + int(code[(pc+1)%refCode])) % refCode
				continue
			}
		case 3:
			regs[a] = int(code[(pc+regs[b]&0xfff)%refCode])
		}
		pc = (pc + 1) % refCode
	}
	refSink += sum + regs[0]
}

// calibrate times the kernel refReps times and returns the median in ms.
// Each run follows a collection, so that the heap the program under test
// left behind does not set when the collector runs inside the kernel.
func calibrate() float64 {
	ts := make([]float64, refReps)
	for i := range ts {
		runtime.GC()
		t0 := time.Now()
		kernel()
		ts[i] = ms(time.Since(t0))
	}
	slices.Sort(ts)
	return ts[refReps/2]
}

// slowness is how much slower than nominal the host ran between two
// calibrations.
func slowness(before, after float64) float64 {
	return (before + after) / 2 / refNominalMS
}
