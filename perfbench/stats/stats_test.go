package stats

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{3, 3, 3, 3}, 3, 3, 3},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, q2, q3 := Quartiles([]float64{7}); q1 != 7 || q2 != 7 || q3 != 7 {
		t.Errorf("one value: %v %v %v", q1, q2, q3)
	}
	if q1, _, _ := Quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("no values: %v", q1)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := Median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	// Quartiles 1.5 and 4.5 around median 3: spread (4.5-1.5)/3.
	if s := Spread([]float64{1, 2, 3, 4, 5}); !near(s, 1) {
		t.Errorf("spread %v", s)
	}
	if s := Spread([]float64{0, 0, 0}); !math.IsInf(s, 1) {
		t.Errorf("zero-median spread %v", s)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		value  float64
		beyond int
	}{
		{19, 100, 19, 0},    // p50 would leave 9 beyond: the maximum, nothing beyond
		{20, 50, 10, 10},    // p50 rank 10 leaves exactly 10
		{99, 50, 50, 49},    // p90 rank 90 leaves 9
		{100, 90, 90, 10},   // p90 rank 90 leaves exactly 10; p95 only 5
		{199, 90, 180, 19},  // p95 rank 190 leaves 9
		{200, 95, 190, 10},  // p95 rank 190 leaves exactly 10
		{999, 95, 950, 49},  // p99 rank 990 leaves 9
		{1000, 99, 990, 10}, // p99 rank 990 leaves exactly 10
		{10000, 99.9, 9990, 10},
		{50000, 99.9, 49950, 50},
	}
	for _, c := range cases {
		got := TailOf(seq(c.n))
		if got.Percentile != c.p || got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got %+v, want p%v=%v beyond %d", c.n, got, c.p, c.value, c.beyond)
		}
		if c.p != 100 && got.Beyond < MinBeyond {
			t.Errorf("n=%d: only %d beyond p%v", c.n, got.Beyond, got.Percentile)
		}
	}
}

func TestTailAtMostPinsRung(t *testing.T) {
	// Either side of p99's threshold, a cap at p95 reports p95.
	for _, n := range []int{999, 1000, 5000} {
		got := TailAtMost(seq(n), 95)
		if got.Percentile != 95 || got.Value != float64(Rank(n, 95)) || got.N != n {
			t.Errorf("n=%d: got %+v, want p95", n, got)
		}
	}
	// Below the cap the rule still needs ten beyond.
	if got := TailAtMost(seq(150), 95); got.Percentile != 90 {
		t.Errorf("n=150: got p%v, want p90", got.Percentile)
	}
	if a, b := TailAtMost(seq(50000), 100), TailOf(seq(50000)); a != b {
		t.Errorf("a cap at 100 changed the tail: %+v vs %+v", a, b)
	}
}

func TestTailIgnoresInputOrder(t *testing.T) {
	xs := seq(200)
	rev := make([]float64, len(xs))
	for i, x := range xs {
		rev[len(xs)-1-i] = x
	}
	if a, b := TailOf(xs), TailOf(rev); a != b {
		t.Errorf("order changed the tail: %+v vs %+v", a, b)
	}
}

func TestOpenLoopLatencyCountsFromSchedule(t *testing.T) {
	// Three requests due every 10 ms. The second stalls for 50 ms, so the
	// third, due at 20 ms, cannot be sent before 60 ms.
	sends := []Send{
		{Scheduled: 0.000, Sent: 0.000, Done: 0.005},
		{Scheduled: 0.010, Sent: 0.010, Done: 0.060},
		{Scheduled: 0.020, Sent: 0.060, Done: 0.065},
	}
	o := Summarize(sends, 1)
	wantLat := []float64{0.005, 0.050, 0.045}
	wantLag := []float64{0, 0, 0.040}
	for i := range sends {
		if !near(o.Latencies[i], wantLat[i]) {
			t.Errorf("latency %d = %v, want %v", i, o.Latencies[i], wantLat[i])
		}
		if !near(o.Lags[i], wantLag[i]) {
			t.Errorf("lag %d = %v, want %v", i, o.Lags[i], wantLag[i])
		}
	}
	// Timed from the actual send, the third request would read 5 ms and
	// hide the stall it suffered.
	if s := sends[2]; near(s.Latency(), s.Done-s.Sent) {
		t.Error("latency measured from the send, not the schedule")
	}
	if o.Backlog {
		t.Error("40 ms of lag is not a backlog under a 1 s limit")
	}
	if !Summarize(sends, 0.030).Backlog {
		t.Error("40 ms of final lag must count as a backlog under a 30 ms limit")
	}
}
