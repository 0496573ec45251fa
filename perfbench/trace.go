package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Op     int    `json:"op"`     // operation the span belongs to
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per layer call.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]int{}} }

// count adds n to a named counter read at a layer boundary.
func (t *tracer) count(name string, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] += n
}

func (t *tracer) counter(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// layerTime is the self time and call count of every span named name. A
// span's self time is its duration minus the part of it its children
// cover.
func (t *tracer) layerTime(name string) (n int, self time.Duration) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		n++
		self += time.Duration(s.End - s.Start - covered(children[i]))
	}
	return n, self
}

// covered is the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	start := int64(-1)
	for _, x := range iv {
		switch {
		case start < 0:
			start, end = x[0], x[1]
		case x[0] > end:
			total += end - start
			start, end = x[0], x[1]
		case x[1] > end:
			end = x[1]
		}
	}
	if start >= 0 {
		total += end - start
	}
	return total
}

// msPerCall is a layer's mean self time per call in ms (0 if never called).
func (t *tracer) msPerCall(name string) float64 {
	n, d := t.layerTime(name)
	if n == 0 {
		return 0
	}
	return ms(d) / float64(n)
}

// write saves the spans as JSON under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// layerUnits lists every per-layer metric a traced run reports, with its
// unit. A layer that does no work in a workload reports 0.
var layerUnits = []struct{ name, unit string }{
	{"front.ms_per_call", "ms"},
	{"front.cache_hit_ratio", "ratio"},
	{"core.plan_ms_per_call", "ms"},
	{"check.plan_ms_per_call", "ms"},
	{"check.code_ms_per_call", "ms"},
	{"check.violations", "count"},
	{"codegen.ms_per_call", "ms"},
	{"pipeline.self_ms_per_call", "ms"},
	{"pipeline.demotions", "count"},
	{"incr.load_ms", "ms"},
	{"incr.save_ms", "ms"},
	{"incr.build_ms_per_edit", "ms"},
	{"incr.replanned_per_edit", "count"},
	{"incr.reused_per_edit", "count"},
	{"incr.fallback_ratio", "ratio"},
	{"sim.cold_ms_per_run", "ms"},
	{"sim.warm_ms_per_run", "ms"},
	{"sim.cold_share", "ratio"},
	{"sim.minstr_per_s", "Minstr/s"},
	{"sim.fallback_runs", "count"},
	{"daemon.run.p50_ms", "ms"},
	{"daemon.compile.p50_ms", "ms"},
	{"daemon.compile-incremental.p50_ms", "ms"},
	{"daemon.server_ms_per_req", "ms"},
	{"daemon.phase.parse.ms_per_req", "ms"},
	{"daemon.phase.sema.ms_per_req", "ms"},
	{"daemon.phase.lower.ms_per_req", "ms"},
	{"daemon.phase.opt.ms_per_req", "ms"},
	{"daemon.phase.plan.ms_per_req", "ms"},
	{"daemon.phase.validate.ms_per_req", "ms"},
	{"daemon.phase.codegen.ms_per_req", "ms"},
	{"daemon.phase.predecode.ms_per_req", "ms"},
	{"daemon.phase.run.ms_per_req", "ms"},
	{"daemon.phase.incremental.ms_per_req", "ms"},
	{"daemon.overhead_ms_per_req", "ms"},
	{"daemon.queue_depth_mean", "count"},
	{"daemon.busy_workers_mean", "count"},
	{"daemon.admit_ratio", "ratio"},
	{"gen.lag_tail_ms", "ms"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// layers is a traced run's per-layer report, every metric present.
type layers map[string]metric

func newLayers() layers {
	l := layers{}
	for _, u := range layerUnits {
		l[u.name] = metric{0, u.unit}
	}
	return l
}

// set records a measured value; the name must be one of layerUnits.
func (l layers) set(name string, v float64) {
	m, ok := l[name]
	if !ok {
		panic("perfbench: unknown layer metric " + name)
	}
	m.Value = v
	l[name] = m
}

// runtimeSample is a snapshot of this process's allocation and GC CPU
// counters.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func sampleRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// setRuntime reports allocation per operation and GC's share of CPU
// between two samples.
func (l layers) setRuntime(a, b runtimeSample, ops int) {
	if ops > 0 {
		l.set("runtime.alloc_kb_per_op", (b.allocBytes-a.allocBytes)/1024/float64(ops))
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		l.set("runtime.gc_cpu_share", (b.gcCPU-a.gcCPU)/cpu)
	}
}
