package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"chow88/perfbench/stats"
)

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	mismatches        []string

	// windows hold the timed measurements: one per pass of a closed-loop
	// workload; one per 100 ms of an open-loop load step, one per 500 ms
	// of its overload step.
	windows []window
	// limitMS is the workload's latency limit. An open-loop run sets
	// goodput itself; a closed-loop run derives it from the windows.
	limitMS float64
	// tailCap is the highest percentile op_tail_ms may be reported at
	// (stats.TailAtMost).
	tailCap  float64
	openLoop bool
	goodput  float64

	setups []time.Duration
	// setupSlow is the host's slowness (see calibrate.go) while the
	// set-ups ran.
	setupSlow float64
	// rssMB, when set, is the peak resident set of a process measured
	// once (chowd); otherwise the median of the windows' peaks.
	rssMB float64

	// The paper's exact metrics.
	cycles, saverestore, codeWords int64

	layers  map[string]metric
	details []string
}

// window is one slice of a run's timed measurements.
type window struct {
	lat   []float64 // operation latencies in ms
	ok    []bool    // whether each of those operations was correct
	timed time.Duration
	rate  float64 // operations per second; 0 if the window measures none
	rss   float64 // peak resident set in MB; 0 if not measured
	steal float64 // share of CPU time stolen while the window ran
	// slow is how much slower than nominal the host ran the window, as
	// the calibration kernel timed it; 0 if not measured.
	slow float64
}

// slowness is w.slow, or 1 where the window was not calibrated.
func (w window) slowness() float64 {
	if w.slow <= 0 {
		return 1
	}
	return w.slow
}

// atNominal is the median of windows' slowness, 1 if there are none.
func atNominal(slows []float64) float64 {
	if len(slows) == 0 {
		return 1
	}
	return stats.Median(slows)
}

// maxSteal is the share of a CPU's time the hypervisor may steal during
// a window before the window is left out of the timing statistics: its
// figures would measure the host's other tenants, not chow88. Kept
// windows report their timings as measured.
const maxSteal = 0.05

func newOutcome(limitMS, tailCap float64) *outcome {
	return &outcome{limitMS: limitMS, tailCap: tailCap}
}

// fail counts one failed operation and keeps the first few reasons.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.mismatches) < 10 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) detail(format string, args ...any) {
	o.details = append(o.details, "# "+fmt.Sprintf(format, args...))
}

// leastStolen returns the windows of ws the host left alone: those with
// at most maxSteal CPU steal, or, when fewer than two thirds of them are
// that clean, the two thirds with the least steal. Keeping that many
// keeps a tail percentile's sample count, and so its rung, steady.
func leastStolen(ws []window) []window {
	ws = append([]window(nil), ws...)
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].steal < ws[j].steal })
	n := 0
	for _, w := range ws {
		if w.steal <= maxSteal {
			n++
		}
	}
	return ws[:max(n, (2*len(ws)+2)/3)]
}

// endToEnd renders the untraced run's metrics. Timings are reported at
// the nominal host speed (calibrate.go); the raw figures go on '#' lines.
func (o *outcome) endToEnd() map[string]metric {
	// Latency and throughput windows are chosen apart: a daemon run's
	// overload windows load the host more than its latency windows.
	var latW, rateW []window
	var steal float64
	clean := 0
	for _, w := range o.windows {
		steal += w.steal / float64(len(o.windows))
		if w.steal <= maxSteal {
			clean++
		}
		if len(w.lat) > 0 {
			latW = append(latW, w)
		}
		if w.rate > 0 {
			rateW = append(rateW, w)
		}
	}
	o.detail("%d of %d windows ran with at most %.0f%% host CPU steal (mean %.1f%%)", clean, len(o.windows), maxSteal*100, steal*100)

	// Each statistic is taken over the raw figures of the windows kept,
	// then brought to nominal speed by the median slowness of the same
	// windows: one calibration's own noise then moves no figure.
	var lat, latSlow, rates, rateSlow, rss []float64
	var timed time.Duration
	good := 0
	for _, w := range leastStolen(latW) {
		timed += w.timed
		latSlow = append(latSlow, w.slowness())
		for i, l := range w.lat {
			lat = append(lat, l)
			if w.ok[i] && l <= o.limitMS {
				good++
			}
		}
	}
	// The median window's rate: a closed-loop run's median pass, or the
	// median half second of the daemon's overload step.
	for _, w := range leastStolen(rateW) {
		rates = append(rates, w.rate)
		rateSlow = append(rateSlow, w.slowness())
		if w.rss > 0 {
			rss = append(rss, w.rss)
		}
	}
	ls, rs := atNominal(latSlow), atNominal(rateSlow)
	ops := orZero(stats.Median(rates))
	p50 := orZero(stats.Median(lat))
	tail := stats.TailAtMost(lat, o.tailCap)
	o.detail("op_tail_ms is p%v over n=%d samples (%d beyond it)", tail.Percentile, tail.N, tail.Beyond)
	goodput := o.goodput
	if !o.openLoop && timed > 0 {
		goodput = float64(good) / timed.Seconds() * ls
	}
	peak := o.rssMB
	if peak == 0 {
		peak = orZero(stats.Median(rss))
	}
	setup := make([]float64, len(o.setups))
	for i, d := range o.setups {
		setup[i] = d.Seconds()
	}
	ss := window{slow: o.setupSlow}.slowness()
	rawSetup := orZero(stats.Median(setup))
	o.detail("host slowness %.3f over the latency windows kept, %.3f over the rate windows, %.3f at set-up; raw figures: ops_per_s %.4g, op_p50_ms %.4g, op_tail_ms %.4g, setup_s %.4g",
		ls, rs, ss, ops, p50, orZero(tail.Value), rawSetup)
	okRatio := 0.0
	if o.attempted > 0 {
		okRatio = float64(o.attempted-o.failed) / float64(o.attempted)
	}
	return map[string]metric{
		"setup_s":           {rawSetup / ss, "s"},
		"ops_per_s":         {ops * rs, "1/s"},
		"op_p50_ms":         {p50 / ls, "ms"},
		"op_tail_ms":        {orZero(tail.Value) / ls, "ms"},
		"ok_ratio":          {okRatio, "ratio"},
		"goodput_rps":       {goodput, "1/s"},
		"peak_rss_mb":       {peak, "MB"},
		"paper_cycles":      {float64(o.cycles), "cycles"},
		"paper_saverestore": {float64(o.saverestore), "count"},
		"code_words":        {float64(o.codeWords), "words"},
	}
}

// orZero reports a statistic of no samples (NaN) as 0, which JSON can
// carry and which no measured figure reads.
func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// throughput is the median window's operations per second at nominal
// host speed over every window, for comparing two halves of a traced run.
func (o *outcome) throughput() float64 {
	var rates, slows []float64
	for _, w := range o.windows {
		if w.rate > 0 {
			rates = append(rates, w.rate)
			slows = append(slows, w.slowness())
		}
	}
	if len(rates) == 0 {
		return 0
	}
	return stats.Median(rates) * atNominal(slows)
}

// exact accumulates one program's contribution to the paper's metrics.
type exact struct{ cycles, saverestore, codeWords int64 }

func (e *exact) add(cycles, saverestore int64, words int) {
	e.cycles += cycles
	e.saverestore += saverestore
	e.codeWords += int64(words)
}

func (o *outcome) setExact(e exact) {
	o.cycles, o.saverestore, o.codeWords = e.cycles, e.saverestore, e.codeWords
}

// vmHWM reads a process's peak resident set size in MB from /proc.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuClock is one CPU's cumulative stolen and total time, in jiffies.
type cpuClock struct{ steal, total float64 }

// stealClocks reads every CPU's clock from the cpuN lines of /proc/stat;
// it returns none where the file cannot be read.
func stealClocks() []cpuClock {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	var cs []cpuClock
	for _, line := range strings.Split(string(b), "\n") {
		// cpuN user nice system idle iowait irq softirq steal ...
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		var c cpuClock
		for i := 1; i <= 8; i++ {
			v, _ := strconv.ParseFloat(f[i], 64)
			c.total += v
			if i == 8 {
				c.steal = v
			}
		}
		cs = append(cs, c)
	}
	return cs
}

// stealMeter measures CPU steal since it was started.
type stealMeter []cpuClock

func startSteal() stealMeter { return stealClocks() }

// share is the largest share of its time any one CPU had stolen since
// the meter started. Per CPU rather than over the aggregate line, whose
// idle jiffies of an idle CPU would dilute a burst on the busy one.
func (m stealMeter) share() float64 {
	now := stealClocks()
	worst := 0.0
	for i := range now {
		if i >= len(m) || now[i].total <= m[i].total {
			continue
		}
		worst = math.Max(worst, (now[i].steal-m[i].steal)/(now[i].total-m[i].total))
	}
	return worst
}

// resetPeakRSS restarts this process's VmHWM from its current resident
// set, so the peak measured afterwards covers only what follows. Where
// the kernel refuses, the peak simply includes what came before.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
