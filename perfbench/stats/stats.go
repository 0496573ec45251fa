// Package stats holds the order statistics the benchmark reports and the
// compare tool judges with. It uses the standard library only.
package stats

import (
	"math"
	"sort"
)

// Sorted returns a sorted copy of xs.
func Sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the median of xs (the mean of the two middle values for
// an even count), or NaN for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := Sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first quartile, median and third quartile of xs
// with the same interpolation as Python's statistics.quantiles(xs, n=4)
// (its default "exclusive" method), so figures computed here agree with
// that reference. Fewer than two values give that value (or NaN) for all
// three.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := Sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// Spread is the interquartile range of xs as a share of its median: the
// figure a benchmark's run-to-run stability is judged by.
func Spread(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// TailLadder lists the percentiles a tail latency may be reported at.
// The rungs are far apart so that the chosen rung moves only when the
// sample count changes by an order of magnitude, not with run-to-run
// jitter in how many operations fit into a run.
var TailLadder = []float64{50, 90, 95, 99, 99.9}

// MinBeyond is how many samples must lie beyond a reported percentile.
const MinBeyond = 10

// Tail is a high-percentile latency together with the evidence behind it.
type Tail struct {
	// Percentile is the ladder rung reported (e.g. 99).
	Percentile float64
	// Value is the nearest-rank value at that percentile.
	Value float64
	// N is the sample count; Beyond how many samples exceed Value's rank.
	N, Beyond int
}

// TailOf picks the highest TailLadder percentile with at least MinBeyond
// samples beyond it and returns its nearest-rank value. With fewer than
// MinBeyond+1 samples no percentile qualifies and the maximum is returned
// at percentile 100 with Beyond 0, so a caller can still see the count.
func TailOf(xs []float64) Tail { return TailAtMost(xs, 100) }

// TailAtMost is TailOf over the rungs no higher than maxP. A workload
// whose sample count varies around a rung's threshold (1000 for p99)
// pins its rung below it, so that its tail does not jump between rungs
// from run to run.
func TailAtMost(xs []float64, maxP float64) Tail {
	s := Sorted(xs)
	n := len(s)
	if n == 0 {
		return Tail{Value: math.NaN()}
	}
	for i := len(TailLadder) - 1; i >= 0; i-- {
		p := TailLadder[i]
		if p > maxP {
			continue
		}
		r := Rank(n, p)
		if n-r >= MinBeyond {
			return Tail{Percentile: p, Value: s[r-1], N: n, Beyond: n - r}
		}
	}
	return Tail{Percentile: 100, Value: s[n-1], N: n}
}

// Rank is the 1-based nearest rank of percentile p among n samples:
// the smallest r with r >= p/100*n.
func Rank(n int, p float64) int {
	// The tolerance keeps float error in p/100*n from bumping an exact
	// rank (0.999*10000) to the next one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Send is one open-loop request: when it was due, when the generator
// actually sent it, and when its answer arrived.
type Send struct {
	Scheduled, Sent, Done float64 // seconds from the step's start
}

// Latency is the request's latency counted from its scheduled send time,
// so a stall that delays later sends is charged to them as well.
func (s Send) Latency() float64 { return s.Done - s.Scheduled }

// Lag is how late the generator sent the request.
func (s Send) Lag() float64 { return s.Sent - s.Scheduled }

// OpenLoop summarizes one fixed-rate step of an open-loop run.
type OpenLoop struct {
	Latencies []float64 // from scheduled send, one per answered request
	Lags      []float64 // generator lateness, one per sent request
	// Backlog reports a growing backlog: the last request of the step was
	// sent later than limit after it was due, so the generator could not
	// keep up with the offered rate.
	Backlog bool
}

// Summarize turns a step's sends (in schedule order) into latencies and
// lags, and decides whether the backlog grew past limit (seconds).
func Summarize(sends []Send, limit float64) OpenLoop {
	var o OpenLoop
	for _, s := range sends {
		o.Latencies = append(o.Latencies, s.Latency())
		o.Lags = append(o.Lags, s.Lag())
	}
	if n := len(sends); n > 0 && sends[n-1].Lag() > limit {
		o.Backlog = true
	}
	return o
}
