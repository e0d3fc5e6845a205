package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // length of the run's measured parts, all rounds together
	trace    bool    // traced pass: per-layer metrics instead of end-to-end ones
	smoke    bool    // rot check: the numbers mean nothing, so nothing is repeated

	// Set by runWorkload: which of the run's measured rounds this is.
	round, rounds int
}

// outDir, under the working directory (this one: run.sh and go test both run
// here), holds the WAL directories while a run lasts, the span files and the
// result file. It is git-ignored.
const outDir = "out"

// roundsPerRun is how many rounds an untraced run is made of. A round is a
// cluster's whole life: set-up, maybe a measured part, teardown. setup_s is
// the median of the rounds' set-up times (one set-up is mostly one randomized
// election timeout). How many of the rounds are measured, the run's measured
// time split evenly between them, is the workload's choice; a figure measured
// in several rounds is the median of theirs.
const roundsPerRun = 3

// part is this round's share of the given fraction of the run's measured
// time.
func (c runConfig) part(share float64) time.Duration {
	return time.Duration(c.seconds * share / float64(c.rounds) * float64(time.Second))
}

// whole is the given fraction of the run's measured time, for what only the
// last round does.
func (c runConfig) whole(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// last reports whether this is the run's last round, the one that goes on to
// the unbounded extras: the rate ladder, the saturating closed loop.
func (c runConfig) last() bool { return c.round == c.rounds-1 }

// runResult is what one run reports.
type runResult struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Traced     bool               `json:"traced"`
	Correct    bool               `json:"correct"`
	Violations []string           `json:"violations,omitempty"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]float64 `json:"metrics"`
	// Info holds what explains the metrics without being one: sample counts,
	// generator lateness, the ladder's outcome, and on the traced pass the
	// end-to-end numbers as seen with tracing on.
	Info map[string]float64 `json:"info"`
}

// measured is the outcome of a workload's measured window.
type measured struct {
	ops    *phase    // the workload's operation
	writes *phase    // its proposals (ops, unless the operation is a read)
	fromNs int64     // the window ops ran in, since epoch
	toNs   int64     //
	cpuMs  float64   // CPU time the process used in that window
	allocs float64   // heap allocations it made there
	extra  []*phase  // other operations that count toward attempted/failed
	lateMs []float64 // open-loop generator lateness
	info   map[string]float64

	// Traced pass only.
	commits     int                // proposals committed while the tracer was on
	window      time.Duration      // how long it was on
	wire        bool               // the cluster talks over UDP
	layers      map[string]float64 // workload-specific per-layer values
	counters    map[string]uint64  // the nodes' own Metrics(), summed, as a delta over the window
	mallocs     float64
	gcPauseMs   float64
	goroutines  float64
	chanDepth   float64
	termChanges float64
}

// bench is a workload's life cycle.
type bench interface {
	// setup brings the system to the point where it serves: cluster built,
	// leader(s) elected, warm-up commits done.
	setup(dir string, trc *tracer) error
	// measure runs the measured part.
	measure() (*measured, error)
	// halt stops the nodes where they stand, releasing whatever is blocked
	// on them; teardown still follows.
	halt()
	// teardown stops everything and returns what the correctness gate found.
	teardown() []string
}

// workloadSpec names a workload and says why it exists.
type workloadSpec struct {
	name string
	why  string
	make func(cfg runConfig) bench
	// tail is the percentile op_tail_ms reports: 99, or where the workload's
	// rate cannot put a thousand operations into a slice, 90.
	tail float64
	// rounds is how many of a run's rounds are measured. One long window, after
	// a run-in (nodeBench.runIn), suits a Fast Raft group. Three short ones
	// suit C-Raft, where a cluster keeps for life what chance gave it at birth
	// (who leads, how the 20 ms and 100 ms timers are phased against each
	// other): whole clusters differ by up to 8% in op_p50_ms however long they
	// are measured, the median of three by under 3% between ten runs.
	rounds int
	// suiteOnly keeps the workload out of BENCHMARK.json: the suite runs
	// it, the driver that holds every declared metric to a bound does not.
	suiteOnly bool
	// closedLoop workloads measure trace.overhead_frac on the traced pass.
	closedLoop bool
}

// The three workloads on a WAL are bound by this machine's fsync, which on a
// shared disk swings by a fifth between one minute and the next (README):
// no figure of theirs can carry a 10% bound, so the suite runs and reports
// them and BENCHMARK.json declares their twins on memory storage.
var workloadSpecs = []workloadSpec{
	{name: "solo_wal_closed", suiteOnly: true, closedLoop: true, tail: 99, rounds: 1,
		why:  "One member on a group-commit WAL, 32 proposals outstanding: storage and the host pipeline do all the work, codec, transport and replication none, so only a WAL or fsync change may move it.",
		make: func(cfg runConfig) bench { return &nodeBench{cfg: cfg, size: 1, mode: modeClosed} }},
	{name: "solo_mem_closed", closedLoop: true, tail: 99, rounds: 1,
		why:  "One member on memory storage, 32 proposals outstanding: host, logstore and apply pipeline alone, no disk. Today each commit waits for the next heartbeat, which a change to the host should move.",
		make: func(cfg runConfig) bench { return &nodeBench{cfg: cfg, size: 1, mem: true, mode: modeClosed} }},
	{name: "fr3_udp_wal_open", suiteOnly: true, tail: 99, rounds: 1,
		why:  "Three members over loopback UDP with a WAL each, 1000 proposals/s at the leader, then a rate ladder: replication, codec, transport and three fsyncing logs share the machine's cores.",
		make: func(cfg runConfig) bench { return &nodeBench{cfg: cfg, size: 3, mode: modeOpen} }},
	{name: "fr3_udp_mem_open", tail: 99, rounds: 1,
		why:  "Three members over loopback UDP on memory storage, 1000 proposals/s at the leader, then a rate ladder: replication, codec and transport share the machine's cores and no disk blurs the timing.",
		make: func(cfg runConfig) bench { return &nodeBench{cfg: cfg, size: 3, mem: true, mode: modeOpen} }},
	{name: "fr3_udp_wal_mixed", suiteOnly: true, tail: 99, rounds: 1,
		why:  "Three members over UDP with a WAL each, 500 proposals/s at a follower (the paper's fast track: the proposer is not the leader) beside paced lease reads at the leader.",
		make: func(cfg runConfig) bench { return &nodeBench{cfg: cfg, size: 3, mode: modeMixed} }},
	{name: "fr3_udp_mem_mixed", tail: 99, rounds: 1,
		why:  "Same cluster, 500 proposals/s at a follower (the paper's fast track: the proposer is not the leader) beside paced lease reads at the leader: a change to heartbeat rounds or leases shows here.",
		make: func(cfg runConfig) bench { return &nodeBench{cfg: cfg, size: 3, mem: true, mode: modeMixed} }},
	{name: "fr3_udp_mem_read_index", tail: 99, rounds: 1,
		why:  "Same cluster and follower writes; the operation is a quorum-confirmed ReadLinearizable at the leader, 32 closed-loop readers: read latency rides the heartbeat rounds the writes use.",
		make: func(cfg runConfig) bench { return &nodeBench{cfg: cfg, size: 3, mem: true, mode: modeReadIndex} }},
	{name: "fr3_udp_mem_read_follower", tail: 99, rounds: 1,
		why:  "Same cluster and follower writes; the operation is ReadFollowerLocal at the other follower: the confirmation round plus forwarding and the wait for the follower's own commit index.",
		make: func(cfg runConfig) bench { return &nodeBench{cfg: cfg, size: 3, mem: true, mode: modeReadFollower} }},
	{name: "craft3x3_delay", tail: 90, rounds: 3,
		why:  "Nine C-Raft sites in three clusters, 0.3 ms delay inside and 25 ms between them, memory storage: batching and the global instance do the work; codec, UDP and WAL are bypassed and must not move it.",
		make: func(cfg runConfig) bench { return &craftBench{cfg: cfg} }},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloadSpecs {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// runWorkload runs the workload's rounds, checks correctness and assembles
// the run's metrics. A run that fails the correctness gate returns its
// violations and no metrics.
func runWorkload(cfg runConfig) (*runResult, error) {
	spec, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	setups := roundsPerRun
	cfg.rounds = spec.rounds
	if cfg.trace || cfg.smoke {
		setups, cfg.rounds = 1, 1 // one span file, one ledger; the traced pass reports no setup_s
	}
	res := &runResult{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.trace,
		Metrics: map[string]float64{}, Info: map[string]float64{}}
	// The per-workload deadline: set-ups, the measured parts, the settling of
	// their stragglers and teardowns, with room to spare. A run that is still
	// going by then is hung, and a hung run must not pass for a slow one.
	limit := time.Duration(setups+1)*setupDeadline + cfg.whole(4) + 60*time.Second
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: workload %s still running after %v; giving up\n", cfg.workload, limit)
		dumpStacks()
		os.Exit(3)
	})
	defer watchdog.Stop()

	var rounds []map[string]float64 // each measured round's end-to-end figures
	var setupS []float64
	var m *measured
	var trc *tracer
	var late, all []float64
	stalls := 0
	for cfg.round = cfg.rounds - setups; cfg.round < cfg.rounds; cfg.round++ { // below zero: set up and torn down only
		if cfg.trace {
			trc = newTracer()
		}
		b := spec.make(cfg)
		dir := filepath.Join(outDir, fmt.Sprintf("run-%d-%s-%d", os.Getpid(), cfg.workload, len(setupS)+stalls))
		start := time.Now()
		err := b.setup(dir, trc)
		took := time.Since(start).Seconds()
		if err == nil && cfg.round >= 0 {
			m, err = measureGuarded(b, cfg)
		}
		res.Violations = append(res.Violations, b.teardown()...)
		if errors.Is(err, errStalled) && stalls == 0 {
			// Measured again, once, on a fresh cluster: the stall is reported
			// (info.stalled_attempts) and its stacks are on standard error,
			// but one hiccup in thousands of seconds of runs should not void
			// a whole set of them. A second stall fails the run.
			stalls++
			cfg.round--
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		setupS = append(setupS, took)
		if cfg.round < 0 {
			continue
		}
		rounds = append(rounds, endToEnd(m, spec.tail))
		res.Attempted, res.Failed = res.Attempted+m.ops.attempted, res.Failed+m.ops.failed()
		for _, ph := range m.extra {
			res.Attempted, res.Failed = res.Attempted+ph.attempted, res.Failed+ph.failed()
		}
		for k, v := range m.info {
			res.Info[k] = v
		}
		late, all = append(late, m.lateMs...), append(all, m.ops.samples()...)
	}
	res.Info["stalled_attempts"] = float64(stalls)
	res.Correct = len(res.Violations) == 0
	if !res.Correct {
		return res, nil
	}

	e2e := map[string]float64{"ok_frac": 1 - float64(res.Failed)/float64(res.Attempted), "setup_s": median(setupS)}
	for name := range rounds[0] {
		var vals []float64
		for _, r := range rounds {
			vals = append(vals, r[name])
		}
		e2e[name] = median(vals)
	}
	sort.Float64s(all)
	res.Info["samples"] = float64(len(all))
	res.Info["tail_pct"] = spec.tail
	if tail := highestTail(len(all)); tail > 0 {
		res.Info["whole_run_tail_pct"] = tail
		res.Info["whole_run_tail_ms"] = percentile(all, tail)
	}
	if len(late) > 0 {
		sort.Float64s(late)
		res.Info["gen.late_ms_p99"] = percentile(late, 99)
		res.Info["gen.late_ms_max"] = late[len(late)-1]
	}
	if !cfg.trace {
		res.Metrics = e2e
		return res, nil
	}
	for k, v := range e2e {
		res.Info["traced."+k] = v
	}
	if spec.closedLoop {
		// The cost of looking, where it can show: a closed loop slows down
		// when its system does. A second, untraced pass of half the length
		// gives the throughput to compare with.
		plain := cfg
		plain.trace, plain.seconds = false, cfg.seconds/2
		ref, err := runWorkload(plain)
		if err != nil || !ref.Correct {
			return nil, fmt.Errorf("%s: untraced reference pass failed: %v", cfg.workload, err)
		}
		res.Info["trace.overhead_frac"] = 1 - e2e["ops_per_s"]/ref.Metrics["ops_per_s"]
	}
	res.Metrics = layerMetrics(trc, m, res.Info)
	path, err := trc.writeSpans(outDir, cfg.workload)
	if err != nil {
		return nil, fmt.Errorf("%s: span file: %w", cfg.workload, err)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %d spans written to %s\n", len(trc.spans), path)
	return res, nil
}

// sliceCount is how many slices of equal length a window of secs seconds with
// n operations due in it is cut into: as many as can each hold ten samples
// beyond the tail-th percentile (a thousand operations for a p99, a hundred
// for a p90), at most one per second, at least one. Every latency figure is
// the median over the slices of the slice's own value, so one bad stretch (a
// GC cycle, a slow fsync) cannot set the round's result.
func sliceCount(n int, secs, tail float64) int {
	perSlice := int(math.Ceil(10/(1-tail/100) - 1e-9))
	return max(1, min(n/perSlice, int(secs)))
}

// sliced is one slice's view of a phase.
type sliced struct {
	lat []float64 // sorted latencies of the operations due in the slice, failures at the cut-off
	ok  int       // how many of them completed
}

// sliceUp cuts the window [fromNs, toNs) of ph into slices of equal length.
func sliceUp(ph *phase, fromNs, toNs int64, tail float64) []sliced {
	due := 0
	for _, at := range append(append([]int64(nil), ph.dueNs...), ph.failedNs...) {
		if at >= fromNs && at < toNs {
			due++
		}
	}
	out := make([]sliced, sliceCount(due, float64(toNs-fromNs)/1e9, tail))
	find := func(ns int64) int { // the slice an instant falls in, -1 outside the window
		if ns < fromNs || ns >= toNs {
			return -1
		}
		return int((ns - fromNs) * int64(len(out)) / (toNs - fromNs))
	}
	for i, at := range ph.dueNs {
		if k := find(at); k >= 0 {
			out[k].lat = append(out[k].lat, ph.latMs[i])
			out[k].ok++
		}
	}
	for _, at := range ph.failedNs {
		if k := find(at); k >= 0 {
			out[k].lat = append(out[k].lat, ph.failMs)
		}
	}
	for k := range out {
		sort.Float64s(out[k].lat)
	}
	return out
}

// errStalled reports a measured part that overran its deadline.
var errStalled = errors.New("the cluster stopped serving: the measured part overran its deadline")

// measureGuarded runs b.measure under a per-phase deadline. A cluster that
// stops serving (past saturation, or after an election it does not come back
// from) blocks the generator inside ProposeAsync, where it cannot watch the
// clock itself; when the deadline passes, the stacks are written to standard
// error and the nodes are stopped, which releases it.
func measureGuarded(b bench, cfg runConfig) (*measured, error) {
	type outcome struct {
		m   *measured
		err error
	}
	done := make(chan outcome, 1) // the one send must not block a late finisher
	go func() {
		m, err := b.measure()
		done <- outcome{m, err}
	}()
	limit := cfg.whole(1) + 15*time.Second
	select {
	case out := <-done:
		return out.m, out.err
	case <-time.After(limit):
		fmt.Fprintf(os.Stderr, "benchmark: %s: measured part still running after %v; stopping the nodes\n", cfg.workload, limit)
		dumpStacks()
		b.halt()
		<-done
		return nil, errStalled
	}
}

// dumpStacks writes every goroutine's stack to standard error.
func dumpStacks() {
	buf := make([]byte, 1<<20)
	os.Stderr.Write(buf[:runtime.Stack(buf, true)])
}

// endToEnd derives the metrics every workload reports from one round. Latency
// is the median over the window's slices of each slice's median and tail-th
// percentile; throughput is the operations due in the window that completed,
// over its length; allocations are the window's, per operation due in it. CPU
// per operation goes to info: see README on why it has no bound.
func endToEnd(m *measured, tail float64) map[string]float64 {
	var p50, hi []float64
	due, done, fewest := 0, 0, 0
	slices := sliceUp(m.ops, m.fromNs, m.toNs, tail)
	for i, s := range slices {
		if len(s.lat) > 0 {
			p50, hi = append(p50, percentile(s.lat, 50)), append(hi, percentile(s.lat, tail))
		}
		if i == 0 || len(s.lat) < fewest {
			fewest = len(s.lat)
		}
		due, done = due+len(s.lat), done+s.ok
	}
	m.info["slices"] = float64(len(slices))
	m.info["samples_in_smallest_slice"] = float64(fewest)
	m.info["cpu_ms_per_op"] = m.cpuMs / float64(max(done, 1))
	return map[string]float64{
		"op_p50_ms": median(p50), "op_tail_ms": median(hi),
		"ops_per_s":     float64(done) / (float64(m.toNs-m.fromNs) / 1e9),
		"allocs_per_op": m.allocs / float64(max(due, 1)),
	}
}

// window brackets a measured stretch: the wall clock, the process's CPU time
// and the heap's allocation count at both ends. On the traced pass it also
// switches the span recorder on and takes the nodes' own counters at both
// ends.
type window struct {
	trc  *tracer
	snap func() map[string]uint64
	mem0 runtime.MemStats
	cnt0 map[string]uint64

	fromNs int64
	cpu0   float64
}

func openWindow(trc *tracer, snap func() map[string]uint64) *window {
	w := &window{trc: trc, snap: snap}
	if trc != nil {
		w.cnt0 = snap()
		trc.open()
	}
	runtime.ReadMemStats(&w.mem0)
	w.fromNs, w.cpu0 = sinceEpoch(time.Now()), cpuMs()
	return w
}

// stop ends the timed stretch and files it in m.
func (w *window) stop(m *measured) {
	m.fromNs, m.toNs, m.cpuMs = w.fromNs, sinceEpoch(time.Now()), cpuMs()-w.cpu0
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.allocs = float64(mem.Mallocs - w.mem0.Mallocs)
}

// end closes the traced stretch, once the window's stragglers have settled.
func (w *window) end(m *measured) {
	if w.trc == nil {
		return
	}
	w.trc.close()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.window = time.Duration(sinceEpoch(time.Now()) - w.fromNs)
	m.mallocs = float64(mem.Mallocs - w.mem0.Mallocs)
	m.gcPauseMs = float64(mem.PauseTotalNs-w.mem0.PauseTotalNs) / 1e6
	m.goroutines = float64(runtime.NumGoroutine())
	m.counters = w.snap()
	for k, v := range w.cnt0 {
		m.counters[k] -= v
	}
	m.termChanges = float64(m.counters[termSum])
}
