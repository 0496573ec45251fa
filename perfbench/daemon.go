package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"chow88"
	"chow88/internal/benchprog"
	"chow88/internal/daemon"
	"chow88/internal/interp"
	"chow88/perfbench/stats"
)

// The daemon workload drives chowd open-loop at offered-rate steps, from
// light load to past saturation. The overload step comes first: it offers
// more than chowd can answer on nproc workers, so it measures capacity
// (ops_per_s) and is left out of the latency figures. The load steps then
// offer fixed shares of that measured capacity, so that goodput_rps,
// read at the highest load step that meets the latency limit, follows
// capacity both ways.
const daemonOverloadRate = 600 // requests per second

// daemonLoads are the load steps: their offered rates as shares of the
// rate the overload step answered at, their shares of the run, and
// whether their latencies count in op_p50_ms and op_tail_ms. Only the
// lightest step's do: from half of capacity up, latency is mostly the
// queueing of chance coincidences of long requests, which varies from
// run to run far more than service time does. The half-capacity step
// tests goodput. A step at three quarters of capacity met the limit in
// some runs and not in others, and one at full capacity never can, so
// neither is offered.
var daemonLoads = []struct {
	share, runShare float64
	latency         bool
}{{0.25, 0.45, true}, {0.5, 0.25, false}}

// daemonOverloadShare is the overload step's share of the run.
const daemonOverloadShare = 0.3

// daemonTailCap is the highest percentile the daemon's op_tail_ms is
// reported at. Its quarter-capacity step answers about 1000 requests in
// a 35 s run, right at p99's threshold, so the tail rule alone moved
// between p95 and p99 from run to run. Pinned at p95, two ten-seed sets
// spread 0.14 and 0.29: the 50 slowest requests are the ones a host
// hiccup lands on. p90 rests on about 100.
const daemonTailCap = 90

// daemonLimitMS is the latency limit the tail at each step is held to
// for goodput_rps, and how late the generator may fall before a step
// counts as having a growing backlog.
const daemonLimitMS = 250

// The request mix, in weights out of 100; conn deals it in decks.
var daemonMix = []struct {
	kind   string
	weight int
}{
	{"run-short", 25},
	{"run-long", 20},
	{"compile-fresh", 25},
	{"compile-repeat", 10},
	{"compile-incremental", 20},
}

var (
	daemonShortRuns = []string{"dhrystone", "ccom", "upas", "calcc", "awk", "as1"}
	daemonLongRuns  = []string{"map", "uopt"}
	// daemonEditBases gives each connection its own incremental client
	// key and edit sequence.
	daemonEditBases = []string{"large", "ccom"}
)

const (
	daemonFreshPool  = 80
	daemonRepeatPool = 5
	daemonEditLen    = 12
)

// chowd is one running daemon process and a client limited to as many
// connections as the host has CPUs.
type chowd struct {
	cmd    *exec.Cmd
	client *http.Client
	done   chan error
}

// startChowd starts the daemon on a unix socket and waits until /healthz
// answers 200, returning the time that took.
func startChowd(cfg *config, workers int, sock, stateDir string) (*chowd, time.Duration, error) {
	if cfg.chowd == "" {
		return nil, 0, errors.New("no chowd binary (-chowd)")
	}
	t0 := time.Now()
	cmd := exec.Command(cfg.chowd, "-addr", "", "-socket", sock, "-workers", strconv.Itoa(workers), "-state-dir", stateDir)
	cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
	// Should the benchmark itself be killed, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &chowd{cmd: cmd, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	tr := &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			var dl net.Dialer
			return dl.DialContext(ctx, "unix", sock)
		},
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
	}
	d.client = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	for {
		resp, err := d.client.Get("http://chowd/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case err := <-d.done:
			return nil, 0, fmt.Errorf("chowd exited during start-up: %v", err)
		case <-time.After(time.Millisecond):
		}
		if time.Since(t0) > 20*time.Second {
			d.stop()
			return nil, 0, errors.New("chowd did not become healthy within 20s")
		}
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain overruns.
func (d *chowd) stop() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// post sends one request and reads the whole answer; the caller decodes
// it after taking the completion time.
func (d *chowd) post(path string, body []byte) (int, []byte, error) {
	resp, err := d.client.Post("http://chowd"+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// metricsSnapshot reads chowd's /metrics as name → value.
func (d *chowd) metricsSnapshot() (map[string]float64, error) {
	resp, err := d.client.Get("http://chowd/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			m[f[0]] = v
		}
	}
	return m, sc.Err()
}

// dreq is one request of the mix with the check its answer must pass.
// A request that asks for the disassembly has its whole image checked.
type dreq struct {
	kind, path string
	body       func(n int) []byte
	check      func(*daemon.Response) error
}

// conn is one client connection's share of the load: its own seeded
// request stream and, for incremental requests, its own client key.
//
// The stream is dealt from decks rather than drawn independently: every
// run of mixDeck requests holds each kind in exactly its share of the
// mix, and each kind's requests come round in a shuffled cycle. Drawn
// independently, the kinds' shares of a step's few hundred requests
// varied by a few percent from seed to seed, and the median latency,
// which falls between two kinds, moved with them.
type conn struct {
	rng      *rand.Rand
	reqs     map[string][]dreq
	kinds    []string         // the current deck of kinds, dealt from the end
	order    map[string][]int // each kind's current cycle, dealt from the end
	editNext int
	sent     int
}

// mixDeck is one deck of request kinds, in the mix's proportions.
func mixDeck() []string {
	g := 0
	for _, m := range daemonMix {
		g = gcd(g, m.weight)
	}
	var deck []string
	for _, m := range daemonMix {
		for i := 0; i < m.weight/g; i++ {
			deck = append(deck, m.kind)
		}
	}
	return deck
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (c *conn) next() dreq {
	if len(c.kinds) == 0 {
		c.kinds = mixDeck()
		c.rng.Shuffle(len(c.kinds), func(i, j int) { c.kinds[i], c.kinds[j] = c.kinds[j], c.kinds[i] })
	}
	kind := c.kinds[len(c.kinds)-1]
	c.kinds = c.kinds[:len(c.kinds)-1]
	list := c.reqs[kind]
	if kind == "compile-incremental" {
		// Edits of one key are replayed in order.
		q := list[c.editNext%len(list)]
		c.editNext++
		return q
	}
	if len(c.order[kind]) == 0 {
		c.order[kind] = c.rng.Perm(len(list))
	}
	o := c.order[kind]
	c.order[kind] = o[:len(o)-1]
	return list[o[len(o)-1]]
}

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // daemon.Request always marshals
	}
	return b
}

// daemonInputs builds the request mix and the exact metrics of one pass
// over its distinct programs, all checked in process off the clock.
func daemonInputs(cfg *config, rng *rand.Rand, nconn int) ([]*conn, exact, error) {
	var ex exact
	reqs := map[string][]dreq{}
	runReq := func(kind, name string) error {
		b := benchprog.Lookup(name)
		if b == nil {
			return fmt.Errorf("no suite program %q", name)
		}
		out, err := interpret(b.Source, interp.Options{})
		if err != nil {
			return fmt.Errorf("oracle %s: %w", name, err)
		}
		want := cfg.expect(out)
		p, err := chow88.Compile(b.Source, chow88.ModeC())
		if err != nil {
			return err
		}
		res, err := p.Run()
		if err != nil {
			return err
		}
		ex.add(res.Stats.Cycles, res.Stats.SaveRestoreLS(), len(p.Code.Code))
		body := jsonBody(daemon.Request{Source: b.Source})
		cycles := res.Stats.Cycles
		reqs[kind] = append(reqs[kind], dreq{kind: kind, path: "/run",
			body: func(int) []byte { return body },
			check: func(r *daemon.Response) error {
				if !reflect.DeepEqual(r.Output, want) {
					return fmt.Errorf("%s: output differs from the interpreter", name)
				}
				if r.Stats == nil || r.Stats.Cycles != cycles {
					return fmt.Errorf("%s: cycles differ from the in-process run", name)
				}
				return nil
			}})
		return nil
	}
	for _, n := range daemonShortRuns {
		if err := runReq("run-short", n); err != nil {
			return nil, ex, err
		}
	}
	for _, n := range daemonLongRuns {
		if err := runReq("run-long", n); err != nil {
			return nil, ex, err
		}
	}

	compileReq := func(kind, name, src string, fresh, image bool) error {
		p, err := chow88.Compile(src, chow88.ModeC())
		if err != nil {
			return err
		}
		words := len(p.Code.Code)
		ex.add(0, 0, words)
		if cfg.corruptOracle {
			words++
		}
		var want string
		if image {
			want = cfg.expectImage(p.Code.Disassemble())
		}
		reqs[kind] = append(reqs[kind], dreq{kind: kind, path: "/compile",
			body: func(n int) []byte {
				if fresh {
					return jsonBody(daemon.Request{Source: tag(src, fmt.Sprintf("request %d", n)), Disasm: image})
				}
				return jsonBody(daemon.Request{Source: src, Disasm: image})
			},
			check: func(r *daemon.Response) error {
				if r.CodeWords != words {
					return fmt.Errorf("%s: %d code words, in-process compile has %d", name, r.CodeWords, words)
				}
				if image && r.Disasm != want {
					return fmt.Errorf("%s: image differs from the in-process compile's", name)
				}
				return nil
			}})
		return nil
	}
	pool, err := progenPool(rng, daemonFreshPool+daemonRepeatPool)
	if err != nil {
		return nil, ex, err
	}
	image := seededThird(rng, len(pool))
	for i, g := range pool {
		kind, fresh := "compile-fresh", true
		if i >= daemonFreshPool {
			kind, fresh = "compile-repeat", false
		}
		if err := compileReq(kind, g.name, g.src, fresh, image[i]); err != nil {
			return nil, ex, err
		}
	}

	conns := make([]*conn, nconn)
	for c := range conns {
		conns[c] = &conn{rng: rand.New(rand.NewSource(rng.Int63())), reqs: map[string][]dreq{}, order: map[string][]int{}}
		for k, v := range reqs {
			conns[c].reqs[k] = v
		}
		baseName := daemonEditBases[c%len(daemonEditBases)]
		src, err := editBase(baseName)
		if err != nil {
			return nil, ex, err
		}
		key := fmt.Sprintf("perfbench-%d", c)
		image := seededThird(rng, daemonEditLen)
		for step := 0; step < daemonEditLen; step++ {
			if src, err = mutate(rng, src, step); err != nil {
				return nil, ex, err
			}
			p, err := chow88.Compile(src, chow88.ModeC())
			if err != nil {
				return nil, ex, fmt.Errorf("edit %s/%d: %w", baseName, step, err)
			}
			words := len(p.Code.Code)
			ex.add(0, 0, words)
			var want string
			if image[step] {
				want = cfg.expectImage(p.Code.Disassemble())
			}
			body := jsonBody(daemon.Request{Source: src, Client: key, Disasm: image[step]})
			name := fmt.Sprintf("%s step %d", key, step)
			conns[c].reqs["compile-incremental"] = append(conns[c].reqs["compile-incremental"], dreq{
				kind: "compile-incremental", path: "/compile-incremental",
				body: func(int) []byte { return body },
				check: func(r *daemon.Response) error {
					if r.CodeWords != words {
						return fmt.Errorf("%s: %d code words, full compile has %d", name, r.CodeWords, words)
					}
					if r.Disasm != want {
						return fmt.Errorf("%s: incremental image differs from the full compile's", name)
					}
					return nil
				}})
		}
	}
	return conns, ex, nil
}

// seededThird picks a third of n requests to ask for their image. Not
// all do: an image costs chowd a disassembly and both sides a larger
// answer, up to 50 KB for benchprog.Large.
func seededThird(rng *rand.Rand, n int) map[int]bool {
	picked := map[int]bool{}
	for _, i := range rng.Perm(n)[:n/3] {
		picked[i] = true
	}
	return picked
}

// sample is one answered (or failed) request of a step.
type sample struct {
	kind string
	stats.Send
	ok bool
	// What a /compile-incremental answer reports about its rebuild.
	replanned, reused int
	fullRebuild       bool
}

// stepResult is one offered-rate step.
type stepResult struct {
	rate      float64
	dur       time.Duration
	samples   []sample
	abandoned int // scheduled but never sent before the step's grace ran out
	// steal is the host's CPU steal in each window of the step.
	steal     []float64
	windowLen time.Duration
	// backlog is set when the generator was more than the limit behind
	// at the end of the step's last segment. Each segment starts on a
	// fresh schedule, so a backlog that keeps growing shows there.
	backlog bool
	// cals are the calibrations before, between and after the step's
	// segments, in ms of kernel time.
	cals []float64
	// slow is the host's slowness over the run (calibrate.go).
	slow float64
}

// segmentLen is the longest stretch of a step between two calibrations.
// A step's time is split into segments of at most this length, each a
// whole number of the step's windows, with the host's speed calibrated
// while chowd is idle before, between and after them. The host's speed
// moves within seconds; one calibration per step measured whichever
// moment it fell on.
const segmentLen = 2500 * time.Millisecond

// runCalibrated runs one step as consecutive segments (see segmentLen),
// each an open-loop run of its own at the step's rate, and joins them
// into one step whose windows and samples follow on from each other.
func runCalibrated(d *chowd, conns []*conn, rate float64, dur, window time.Duration, o *outcome, tr *tracer, onAnswer func(*conn)) stepResult {
	if rate <= 0 {
		return runStep(d, conns, rate, dur, window, o, tr, onAnswer)
	}
	n := int((dur + segmentLen - 1) / segmentLen)
	seg := max(window, dur/time.Duration(n)/window*window)
	res := stepResult{rate: rate}
	cals := []float64{calibrate()}
	for k := 0; k < n; k++ {
		s := runStep(d, conns, rate, seg, window, o, tr, onAnswer)
		cals = append(cals, calibrate())
		var last stats.Send
		for _, x := range s.samples {
			if x.Scheduled >= last.Scheduled {
				last = x.Send
			}
		}
		res.backlog = len(s.samples) > 0 && last.Lag() > daemonLimitMS/1000.0
		off := res.dur.Seconds()
		for _, x := range s.samples {
			x.Scheduled += off
			x.Sent += off
			x.Done += off
			res.samples = append(res.samples, x)
		}
		res.abandoned += s.abandoned
		res.steal = append(res.steal, s.steal...)
		res.windowLen = s.windowLen
		res.dur += s.dur
	}
	res.cals = cals
	return res
}

// setSlowness sets every step's slowness to the host's over the whole
// run: the median of all the steps' calibrations. A step's own few
// calibrations moved with the moments they fell on, more than the
// step's figures did.
func setSlowness(steps ...*stepResult) {
	var cals []float64
	for _, s := range steps {
		cals = append(cals, s.cals...)
	}
	for _, s := range steps {
		s.slow = atNominal(cals) / refNominalMS
	}
}

// runStep offers rate requests per second for dur, split evenly over the
// connections, each sending on a fixed schedule regardless of answers.
// Latency counts from each request's scheduled send time.
// A traced step records one span per request and calls onAnswer after
// each answer.
func runStep(d *chowd, conns []*conn, rate float64, dur, window time.Duration, o *outcome, tr *tracer, onAnswer func(*conn)) stepResult {
	res := stepResult{rate: rate, dur: dur}
	if rate <= 0 {
		return res // an overload step that got no answers places no load steps
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	interval := time.Duration(float64(time.Second) * float64(len(conns)) / rate)
	grace := time.Duration(daemonLimitMS) * time.Millisecond
	start := time.Now()
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			offset := interval * time.Duration(ci) / time.Duration(len(conns))
			for i := 0; ; i++ {
				sched := offset + time.Duration(i)*interval
				if sched >= dur {
					return
				}
				now := time.Since(start)
				if now < sched {
					time.Sleep(sched - now)
				} else if now > dur+grace {
					mu.Lock()
					res.abandoned += int((dur-sched)/interval) + 1
					mu.Unlock()
					return
				}
				q := c.next()
				c.sent++
				reqBody := q.body(c.sent)
				sp := tr.begin("daemon."+endpoint(q.kind), -1, ci<<24|c.sent)
				sent := time.Since(start)
				status, body, err := d.post(q.path, reqBody)
				done := time.Since(start)
				tr.end(sp)
				var resp daemon.Response
				if err == nil {
					err = json.Unmarshal(body, &resp)
				}
				switch {
				case err != nil:
				case status/100 != 2 || !resp.OK:
					err = fmt.Errorf("%s: http %d: %s", q.kind, status, bytes.TrimSpace(body))
				default:
					err = q.check(&resp)
				}
				s := sample{kind: q.kind, ok: err == nil, Send: stats.Send{
					Scheduled: sched.Seconds(), Sent: sent.Seconds(), Done: done.Seconds()},
					replanned: resp.Replanned, reused: resp.Reused, fullRebuild: !resp.Incremental}
				mu.Lock()
				o.attempted++
				if err != nil {
					o.fail("%v", err)
				}
				res.samples = append(res.samples, s)
				mu.Unlock()
				if onAnswer != nil {
					onAnswer(c)
				}
			}
		}(ci, c)
	}
	// Meanwhile, measure the host's CPU steal in each window.
	n := int((dur + window - 1) / window)
	res.windowLen = dur / time.Duration(n)
	for k := 1; k <= n; k++ {
		m := startSteal()
		time.Sleep(time.Until(start.Add(time.Duration(k) * res.windowLen)))
		res.steal = append(res.steal, m.share())
	}
	wg.Wait()
	return res
}

// latencyWindows splits a load step into its steal-measured windows,
// each holding the latencies of the requests due in it.
func (s stepResult) latencyWindows() []window {
	ws := s.emptyWindows()
	for _, x := range s.samples {
		if k := int(x.Scheduled / s.windowLen.Seconds()); k < len(ws) {
			ws[k].lat = append(ws[k].lat, x.Latency()*1000)
			ws[k].ok = append(ws[k].ok, x.ok)
		}
	}
	return ws
}

// rateWindows splits the overload step into its steal-measured windows,
// each holding the rate of the answers that count and came in it.
func (s stepResult) rateWindows(counts func(sample) bool) []window {
	ws := s.emptyWindows()
	for k := range ws {
		ws[k].timed = s.windowLen
	}
	for _, x := range s.samples {
		// An answer after the step's last window is left out.
		if k := int(x.Done / s.windowLen.Seconds()); k < len(ws) && counts(x) {
			ws[k].rate += 1 / s.windowLen.Seconds()
		}
	}
	return ws
}

func (s stepResult) emptyWindows() []window {
	ws := make([]window, len(s.steal))
	for k := range ws {
		ws[k].steal = s.steal[k]
		ws[k].slow = s.slow
	}
	return ws
}

// Each step is split into windows for measuring host CPU steal. A load
// step's windows are short: steal comes in bursts of a few scheduling
// slices, and a request due in a burst measures the burst. The overload
// step's are long enough to hold a hundred answers, so that the median
// window's rate is a steady capacity figure.
const (
	loadWindow     = 100 * time.Millisecond
	overloadWindow = 500 * time.Millisecond
)

// share is a share of a run's duration.
func share(total time.Duration, x float64) time.Duration {
	return time.Duration(float64(total) * x)
}

// loadRates are the load steps' offered rates for the rate the overload
// step answered at.
func loadRates(capacity float64) []float64 {
	rates := make([]float64, len(daemonLoads))
	for i, l := range daemonLoads {
		rates[i] = l.share * capacity
	}
	return rates
}

// capacity is the overload step's median rate of correct answers over
// the windows the host left alone.
func (s stepResult) capacity() float64 {
	return medianRate(s.rateWindows(func(x sample) bool { return x.ok }))
}

// answered is the overload step's median rate of answers, correct or
// not, over the windows the host left alone.
func (s stepResult) answered() float64 {
	return medianRate(s.rateWindows(func(sample) bool { return true }))
}

func medianRate(ws []window) float64 {
	var rates []float64
	for _, w := range leastStolen(ws) {
		rates = append(rates, w.rate)
	}
	return orZero(stats.Median(rates))
}

// openLoop summarizes a step: its latencies from schedule, generator
// lags, whether a backlog grew, the tail over the windows the host left
// alone, and goodput under the limit.
func (s stepResult) openLoop() (stats.OpenLoop, stats.Tail, float64, bool) {
	// Samples arrive in completion order; the backlog test wants them in
	// schedule order.
	sort.Slice(s.samples, func(i, j int) bool { return s.samples[i].Scheduled < s.samples[j].Scheduled })
	sends := make([]stats.Send, len(s.samples))
	good, failed := 0, 0
	for i, x := range s.samples {
		sends[i] = x.Send
		if !x.ok {
			failed++
		} else if x.Latency()*1000 <= daemonLimitMS {
			good++
		}
	}
	ol := stats.Summarize(sends, daemonLimitMS/1000.0)
	ol.Backlog = ol.Backlog || s.backlog || s.abandoned > 0
	var lat []float64
	for _, w := range leastStolen(s.latencyWindows()) {
		lat = append(lat, w.lat...)
	}
	tail := stats.TailAtMost(lat, daemonTailCap)
	meets := !ol.Backlog && failed == 0 && tail.Value <= daemonLimitMS
	return ol, tail, float64(good) / s.dur.Seconds(), meets
}

func runDaemon(cfg *config) (*outcome, error) {
	nconn := runtime.NumCPU()
	// The load generator runs its Go code on one thread, leaving the CPUs
	// to chowd's workers: fewer runnable threads than CPUs on the client
	// side steadied capacity and goodput (five runs of one seed spread
	// 0.15 with nproc threads, 0.05 with one).
	runtime.GOMAXPROCS(1)
	rng := rand.New(rand.NewSource(cfg.seed))
	conns, ex, err := daemonInputs(cfg, rng, nconn)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("daemon-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "chowd.sock")

	out := newOutcome(daemonLimitMS, daemonTailCap)
	var d *chowd
	setupBefore := calibrate()
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		d, took, err = startChowd(cfg, nconn, sock, filepath.Join(dir, "state"))
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, took)
	}
	defer d.stop()
	out.setupSlow = slowness(setupBefore, calibrate())

	if !cfg.trace {
		over := runCalibrated(d, conns, daemonOverloadRate, share(cfg.duration(), daemonOverloadShare), overloadWindow, out, nil, nil)
		var steps []stepResult
		for i, rate := range loadRates(over.answered()) {
			steps = append(steps, runCalibrated(d, conns, rate, share(cfg.duration(), daemonLoads[i].runShare), loadWindow, out, nil, nil))
		}
		all := []*stepResult{&over}
		for i := range steps {
			all = append(all, &steps[i])
		}
		setSlowness(all...)
		if out.rssMB, err = vmHWM(d.cmd.Process.Pid); err != nil {
			return nil, err
		}
		daemonEndToEnd(out, over, steps)
		out.setExact(ex)
		return out, nil
	}
	return out, traceDaemon(cfg, d, conns, out)
}

// daemonEndToEnd derives the end-to-end metrics from the steps: capacity
// from the overload step, latency over the load steps daemonLoads marks
// for it, and goodput from the highest load step that met the limit (0 if
// none did).
func daemonEndToEnd(out *outcome, over stepResult, steps []stepResult) {
	out.detail("overload step %v/s: %d answered, %.1f/s answered, %.1f/s correct, kernel %.1f ms", over.rate, len(over.samples), over.answered(), over.capacity(), stats.Median(over.cals))
	out.windows = append(out.windows, over.rateWindows(func(x sample) bool { return x.ok })...)
	for i, s := range steps {
		ol, tail, good, meets := s.openLoop()
		out.detail("step %.1f/s: %d answered, %d abandoned, p50 %.2f ms, p%v %.2f ms over the windows kept, lag p50 %.2f ms, backlog %v, kernel %.1f ms",
			s.rate, len(s.samples), s.abandoned, stats.Median(ol.Latencies)*1000, tail.Percentile, tail.Value,
			stats.Median(ol.Lags)*1000, ol.Backlog, stats.Median(s.cals))
		if meets {
			out.goodput = good * s.slow
		}
		if daemonLoads[i].latency {
			out.windows = append(out.windows, s.latencyWindows()...)
		}
	}
	out.openLoop = true
}

// traceDaemon runs the steps untraced at half length, then traced at
// half length, and reports the per-layer metrics of the traced half.
func traceDaemon(cfg *config, d *chowd, conns []*conn, out *outcome) error {
	half := cfg.duration() / 2
	plain := runCalibrated(d, conns, daemonOverloadRate, share(half, daemonOverloadShare), overloadWindow, out, nil, nil)
	load := loadRates(plain.answered())
	r0 := sampleRuntime()
	plainOps := 0
	for i, rate := range load {
		plainOps += len(runCalibrated(d, conns, rate, share(half, daemonLoads[i].runShare), loadWindow, out, nil, nil).samples)
	}
	r1 := sampleRuntime()

	m0, err := d.metricsSnapshot()
	if err != nil {
		return err
	}
	// Senders sample /metrics on their own connection at most every
	// 50 ms, so the load never uses more connections than CPUs.
	var lastSample atomic.Int64
	var smu sync.Mutex
	var queue, busy []float64
	sampleMetrics := func(*conn) {
		now := time.Now().UnixNano()
		if prev := lastSample.Load(); now-prev < int64(50*time.Millisecond) || !lastSample.CompareAndSwap(prev, now) {
			return
		}
		if m, err := d.metricsSnapshot(); err == nil {
			smu.Lock()
			queue = append(queue, m["daemon.queue_depth"])
			busy = append(busy, m["daemon.busy_workers"])
			smu.Unlock()
		}
	}
	tr := newTracer()
	var loadSteps []stepResult
	for i, rate := range load {
		loadSteps = append(loadSteps, runCalibrated(d, conns, rate, share(half, daemonLoads[i].runShare), loadWindow, out, tr, sampleMetrics))
	}
	traced := runCalibrated(d, conns, daemonOverloadRate, share(half, daemonOverloadShare), overloadWindow, out, tr, sampleMetrics)
	setSlowness(&plain)
	setSlowness(&traced)
	m1, err := d.metricsSnapshot()
	if err != nil {
		return err
	}

	l := newLayers()
	byKind := map[string][]float64{}
	var lags []float64
	for _, s := range loadSteps {
		for _, x := range s.samples {
			ep := endpoint(x.kind)
			byKind[ep] = append(byKind[ep], (x.Done-x.Sent)*1000)
			lags = append(lags, x.Lag()*1000)
		}
	}
	for _, ep := range []string{"run", "compile", "compile-incremental"} {
		if xs := byKind[ep]; len(xs) > 0 {
			l.set("daemon."+ep+".p50_ms", stats.Median(xs))
		}
	}
	l.set("gen.lag_tail_ms", orZero(stats.TailOf(lags).Value))

	// The incr layer as the daemon runs it: what each incremental answer
	// reports, and the server's incremental phase time per rebuild.
	var edits, replanned, reused, full float64
	for _, s := range append(loadSteps, traced) {
		for _, x := range s.samples {
			if x.kind == "compile-incremental" && x.ok {
				edits++
				replanned += float64(x.replanned)
				reused += float64(x.reused)
				if x.fullRebuild {
					full++
				}
			}
		}
	}

	delta := func(name string) float64 { return m1[name] - m0[name] }
	if edits > 0 {
		l.set("incr.replanned_per_edit", replanned/edits)
		l.set("incr.reused_per_edit", reused/edits)
		l.set("incr.fallback_ratio", full/edits)
	}
	if n := delta("phase.incremental.count"); n > 0 {
		l.set("incr.build_ms_per_edit", delta("phase.incremental.ns")/n/1e6)
	}
	reqs := delta("daemon.accepted")
	if reqs > 0 {
		server := (delta("phase.compile.ns") + delta("phase.run.ns")) / reqs / 1e6
		l.set("daemon.server_ms_per_req", server)
		for _, p := range []string{"parse", "sema", "lower", "opt", "plan", "validate", "codegen", "predecode", "run", "incremental"} {
			l.set("daemon.phase."+p+".ms_per_req", delta("phase."+p+".ns")/reqs/1e6)
		}
		var all []float64
		for _, s := range append(loadSteps, traced) {
			for _, x := range s.samples {
				all = append(all, (x.Done-x.Sent)*1000)
			}
		}
		l.set("daemon.overhead_ms_per_req", mean(all)-server)
		refused := delta("daemon.rejected_queue_full") + delta("daemon.drain_refusals")
		l.set("daemon.admit_ratio", reqs/(reqs+refused))
	}
	l.set("daemon.queue_depth_mean", mean(queue))
	l.set("daemon.busy_workers_mean", mean(busy))
	l.setRuntime(r0, r1, plainOps)
	if t := traced.capacity() * traced.slow; t > 0 {
		l.set("trace.overhead_ratio", plain.capacity()*plain.slow/t)
	}
	out.layers = l
	return tr.write(filepath.Join(cfg.workdir, "traces"), fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
}

// endpoint names the chowd endpoint a request kind is sent to.
func endpoint(kind string) string {
	switch {
	case strings.HasPrefix(kind, "run"):
		return "run"
	case kind == "compile-incremental":
		return kind
	}
	return "compile"
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
