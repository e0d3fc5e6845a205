package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	hraft "github.com/hraft-io/hraft"
	"github.com/hraft-io/hraft/internal/storage"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

// The tail rule: a percentile is reported only with ten samples beyond it.
func TestHighestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// A slice must hold ten samples beyond the percentile taken from it: a
// thousand operations for a p99, a hundred for a p90, and never less than a
// second of the window.
func TestSlicesHoldTenSamplesBeyondTheTail(t *testing.T) {
	for _, c := range []struct {
		n          int
		secs, tail float64
		want       int
	}{
		{10500, 10.5, 99, 10}, // 1000/s: one slice a second
		{7500, 15, 99, 7},     // 500/s: two-second slices
		{1800, 15, 99, 1},     // 120/s: the whole window, and that only just
		{480, 4, 90, 4},       // 120/s and a p90: one slice a second again
		{23000, 15, 99, 15},   // never more than one a second
		{40, 1, 99, 1},        // a smoke run still gets its one slice
	} {
		got := sliceCount(c.n, c.secs, c.tail)
		if got != c.want {
			t.Errorf("sliceCount(%d, %v, %v) = %d, want %d", c.n, c.secs, c.tail, got, c.want)
		}
		if per := c.n / got; c.n >= 1000 && highestTail(per) < c.tail {
			t.Errorf("%d operations in %d slices: a slice of %d supports p%v, not p%v", c.n, got, per, highestTail(per), c.tail)
		}
	}
}

// Every latency figure is the median over the window's slices, a failure
// counts at the cut-off in the slice it was due in, and throughput counts the
// operations due in the window that completed.
func TestEndToEndIsTheMedianOverSlices(t *testing.T) {
	ph := newPhase(failAfter)
	sec := int64(time.Second)
	for k := 0; k < 3000; k++ { // 1000/s for 3 s; the middle second is ten times slower
		lat := 10 * time.Millisecond
		if k/1000 == 1 {
			lat = 100 * time.Millisecond
		}
		ph.done(int64(k)*sec/1000, lat, true)
	}
	ph.done(-5, time.Millisecond, true)         // due before the window
	ph.done(3*sec+5, time.Millisecond, true)    // and after it
	ph.done(2*sec+500, 3*time.Second, true)     // slower than the cut-off: failed
	ph.done(2*sec+600, time.Millisecond, false) // the call itself failed
	m := &measured{ops: ph, fromNs: 0, toNs: 3 * sec, allocs: 30020, info: map[string]float64{}}
	got := endToEnd(m, 99)
	if got["op_p50_ms"] != 10 || got["op_tail_ms"] != 10 {
		t.Errorf("p50 %v tail %v; want 10, 10: one slow second of three must not set either", got["op_p50_ms"], got["op_tail_ms"])
	}
	if m.info["slices"] != 3 || m.info["samples_in_smallest_slice"] != 1000 {
		t.Errorf("slices %v, smallest %v; want 3, 1000", m.info["slices"], m.info["samples_in_smallest_slice"])
	}
	if want := 3000.0 / 3; got["ops_per_s"] != want {
		t.Errorf("ops_per_s %v, want %v: the two failures were due in the window and did not complete", got["ops_per_s"], want)
	}
	if got["allocs_per_op"] != 10 {
		t.Errorf("allocs_per_op %v, want 10: per operation due in the window, failed ones too", got["allocs_per_op"])
	}
	last := sliceUp(ph, 0, 3*sec, 99)[2].lat
	if n := len(last); n != 1002 || last[n-1] != 2000 || last[n-2] != 2000 {
		t.Errorf("the failures must sit at the cut-off in the slice they were due in, got %v", last[len(last)-3:])
	}
}

// The spreads must be the ones Python's statistics.quantiles(v, n=4) gives,
// since that is what the benchmark contract is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// An open loop times each operation from when it was due: a stall in the
// system delays the submitter, and the operations due during the stall must
// carry it even though their own calls return at once.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	tk := newTracker("n1")
	seq := uint64(0)
	target := loadTarget{trackers: []*tracker{tk}, propose: func(data []byte) hraft.ProposalID {
		seq++
		if seq == 1 {
			time.Sleep(stall)
		}
		tk.complete(seq, data, time.Now(), hraft.Index(seq)) // completes before it is registered
		return hraft.ProposalID{Proposer: "n1", Seq: seq}
	}}
	ph := tk.begin()
	late := openLoop(target, 1000, 30*time.Millisecond, newPayloads(1), nil)
	tk.settle(ph, time.Now())

	if ph.attempted != 30 || len(ph.latMs) != 30 || ph.failed() != 0 {
		t.Fatalf("attempted %d, completed %d, failed %d; want 30, 30, 0", ph.attempted, len(ph.latMs), ph.failed())
	}
	stallMs := float64(stall) / float64(time.Millisecond)
	// Operation k was due k ms in and could not be submitted before the
	// stall ended, so it waited stall-k ms although its call took no time.
	for k := 1; k < 30; k++ {
		if want := stallMs - float64(k) - 1; ph.latMs[k] < want {
			t.Errorf("operation %d: latency %.1f ms, want at least %.1f ms: the stall was omitted", k, ph.latMs[k], want)
		}
	}
	if worst := slices.Max(late); worst < stallMs-5 {
		t.Errorf("generator lateness max %.1f ms, want about %.0f ms", worst, stallMs)
	}
}

func TestUnfinishedOperationsFailAndMissEveryLimit(t *testing.T) {
	tk := newTracker("n1")
	ph := tk.begin()
	now := time.Now()
	tk.register(1, now, []byte("a"))
	tk.register(2, now, []byte("b"))
	tk.register(3, now.Add(-3*time.Second), []byte("c"))
	tk.complete(1, []byte("a"), now.Add(5*time.Millisecond), 1)
	tk.complete(3, []byte("c"), now, 2) // done, but later than the cut-off
	tk.complete(1, []byte("a"), now, 3) // the same proposal at a second index
	tk.settle(ph, time.Now())
	if ph.attempted != 3 || ph.failed() != 2 || len(ph.latMs) != 1 {
		t.Fatalf("attempted %d failed %d completed %d; want 3, 2, 1", ph.attempted, ph.failed(), len(ph.latMs))
	}
	if s := ph.samples(); s[len(s)-1] != 2000 || s[1] != 2000 {
		t.Errorf("failures must count at the cut-off, got %v", s)
	}
	if tk.dups != 1 || tk.outstanding() != 0 {
		t.Errorf("dups %d outstanding %d; want 1, 0", tk.dups, tk.outstanding())
	}
	if tk.maxAcked.Load() != 3 {
		t.Errorf("maxAcked %d, want 3", tk.maxAcked.Load())
	}
}

func TestStreamsMustAgreeOnTheirCommonPrefix(t *testing.T) {
	entry := func(i int, data string) hraft.Entry {
		return hraft.Entry{Index: hraft.Index(i), PID: hraft.ProposalID{Proposer: "n1", Seq: uint64(i)}, Data: []byte(data)}
	}
	a, b, c := &stream{}, &stream{}, &stream{}
	for i := 1; i <= 5; i++ {
		a.add(entry(i, "x"))
		if i <= 3 {
			b.add(entry(i, "x"))
		}
		if i == 2 {
			c.add(entry(i, "y"))
		} else {
			c.add(entry(i, "x"))
		}
	}
	if bad := checkStreams([]string{"a", "b"}, []*stream{a, b}); len(bad) != 0 {
		t.Errorf("a prefix is agreement, got %v", bad)
	}
	if bad := checkStreams([]string{"a", "c"}, []*stream{a, c}); len(bad) != 1 {
		t.Errorf("a differing payload must be reported once, got %v", bad)
	}
	gap := &stream{}
	gap.add(entry(1, "x"))
	gap.add(entry(3, "x"))
	if bad := checkStreams([]string{"gap"}, []*stream{gap}); len(bad) != 1 {
		t.Errorf("a skipped index must be reported, got %v", bad)
	}
}

// The storage wrapper must keep group commit visible to the node, and a node
// on wrapped storage must still acknowledge only what is on disk.
func TestWrappedStorageKeepsAckAfterFsync(t *testing.T) {
	trc := newTracer()
	trc.open()
	wal, err := hraft.OpenWALOptions(filepath.Join(t.TempDir(), "wal"), hraft.WALOptions{
		GroupCommit: true, SyncWindow: -1, FsyncObserver: trc.fsyncObserver()})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	wrapped := trc.wrapStorage("n1", wal)
	ts, ok := wrapped.(*tracedStorage)
	if !ok || storage.AsGrouped(wrapped) == nil {
		t.Fatal("the wrapper hides group commit from the node")
	}
	if _, exposed := wrapped.(interface {
		SetFsyncObserver(func(int, int, time.Duration))
	}); exposed {
		t.Fatal("the wrapper exposes SetFsyncObserver: the node's recorder would displace the benchmark's observer")
	}
	udp, err := hraft.ListenUDP("n1", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node, err := hraft.NewNode(hraft.Options{ID: "n1", Peers: []hraft.NodeID{"n1"}, Transport: udp, Storage: wrapped,
		HeartbeatInterval: heartbeat, ElectionTimeoutMin: electionMin, ElectionTimeoutMax: electionMax, Seed: 1, Trace: trc.nodeTrace()})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	done := make(chan struct{})
	defer close(done)
	go drain(node.Commits(), done, nil, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 20; i++ {
		if _, err := node.Propose(ctx, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		// One proposal at a time: at its acknowledgement nothing appended
		// may still be waiting for its fsync.
		ts.mu.Lock()
		waiting := len(ts.waiting)
		ts.mu.Unlock()
		if waiting != 0 || wal.(storage.Grouped).DurableLSN() != wal.(storage.Grouped).LastLSN() {
			t.Fatalf("proposal %d acknowledged with %d appends not yet durable", i, waiting)
		}
	}
	trc.mu.Lock()
	defer trc.mu.Unlock()
	if trc.n.fsyncs == 0 || len(trc.n.lsnWaitMs) < 20 || len(trc.n.appendCallUs) < 20 {
		t.Errorf("fsyncs %d, durable waits %d, appends %d: the wrapper or the observer saw too little",
			trc.n.fsyncs, len(trc.n.lsnWaitMs), len(trc.n.appendCallUs))
	}
}

// The ledger gives every instant of a proposal's life to exactly one row, the
// most specific layer busy with it, so the rows sum to the client's latency.
func TestLedgerRowsSumToClientLatency(t *testing.T) {
	pid := hraft.ProposalID{Proposer: "n1", Seq: 1}
	other := hraft.ProposalID{Proposer: "n1", Seq: 2}
	us := func(v int64) int64 { return v * 1000 }
	spans := []span{
		{name: rootSpan, node: "n1", start: us(0), end: us(1000), pid: pid},
		{name: "runtime.propose", node: "n1", start: us(0), end: us(100), pid: pid},
		{name: "udpnet.send", node: "n1", start: us(20), end: us(40), pid: pid},
		{name: "storage.append", node: "n1", start: us(50), end: us(60), pid: pid},
		{name: "storage.append", node: "n2", start: us(55), end: us(75), pid: pid}, // in parallel on a follower
		{name: "durable.wait", node: "n1", start: us(60), end: us(400), pid: pid},
		{name: "runtime.deliver", node: "n2", start: us(300), end: us(350), pid: pid},
		{name: "udpnet.send", node: "n2", start: us(900), end: us(1200), pid: pid}, // runs past the commit: clipped
		{name: "storage.append", node: "n1", start: us(500), end: us(600), pid: other},
		{name: "runtime.deliver", node: "n1", start: us(700), end: us(800)}, // background
	}
	l := buildLedger(spans)
	if l.roots != 1 || l.clientUs != 1000 {
		t.Fatalf("roots %d client %v; want 1, 1000", l.roots, l.clientUs)
	}
	want := ledger{storageUs: 25, udpnetUs: 20 + 100, runtimeUs: 100 - 20 - 10 - 15 + 50, durableUs: 340 - 15 - 50 - 25}
	if l.storageUs != want.storageUs || l.udpnetUs != want.udpnetUs || l.runtimeUs != want.runtimeUs || l.durableUs != want.durableUs {
		t.Errorf("ledger %+v, want %+v", l, want)
	}
	sum := l.runtimeUs + l.udpnetUs + l.storageUs + l.durableUs + l.uncoveredUs()
	if math.Abs(sum-l.clientUs) > 1e-9 {
		t.Errorf("rows sum to %v, client mean is %v", sum, l.clientUs)
	}
	if c := l.coverage(); math.Abs(c-(1-l.uncoveredUs()/1000)) > 1e-12 || c <= 0 || c >= 1 {
		t.Errorf("coverage %v", c)
	}
}

func TestCompareVerdicts(t *testing.T) {
	file := func(vals map[string][]float64) *resultFile {
		wr := &workloadResult{Name: "w"}
		for i := 0; i < 3; i++ {
			r := &runResult{Metrics: map[string]float64{}, Info: map[string]float64{}}
			for k, v := range vals {
				r.Metrics[k] = v[i]
			}
			wr.Runs = append(wr.Runs, r)
		}
		wr.Summary = summarize(wr.Runs, endToEndSpecs)
		return &resultFile{Schema: schemaVersion, Workloads: []*workloadResult{wr}}
	}
	old := file(map[string][]float64{
		"op_p50_ms": {10, 10.1, 10.2}, "op_tail_ms": {20, 30, 40}, "ops_per_s": {1000, 1001, 1002}, "ok_frac": {1, 1, 1}})
	cur := file(map[string][]float64{
		"op_p50_ms": {13, 13.1, 13.2}, "op_tail_ms": {21, 31, 41}, "ops_per_s": {1050, 1051, 1052}, "ok_frac": {1, 1, 1}})
	got := map[string]string{}
	for _, v := range compareResults(old, cur) {
		got[v.Metric] = v.Status
	}
	want := map[string]string{"op_p50_ms": "regressed", "op_tail_ms": "unresolved", "ops_per_s": "ok", "ok_frac": "ok"}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: %s, want %s", k, got[k], w)
		}
	}
	var buf bytes.Buffer
	if !printVerdicts(&buf, compareResults(old, cur)) {
		t.Error("a regressed row must make -compare fail")
	}
	if printVerdicts(&buf, compareResults(old, old)) {
		t.Error("a file compared with itself regressed")
	}
}

// BENCHMARK.json at the repository root is generated by -declare; it must
// not drift from the tables in spec.go.
func TestDeclarationMatchesBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json above this directory")
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the declaration; regenerate it: go run . -declare > ../BENCHMARK.json")
	}
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEndSpecs...), perLayerSpecs...) {
		if seen[s.Name] || len(s.Name) > 64 || len(s.Unit) > 16 {
			t.Errorf("metric %q: duplicate, or name or unit too long", s.Name)
		}
		seen[s.Name] = true
	}
	for _, w := range workloadSpecs {
		if len(w.why) > 200 || len(w.name) > 64 {
			t.Errorf("workload %s: name or reason too long (%d characters)", w.name, len(w.why))
		}
	}
	if i := slices.IndexFunc(endToEndSpecs, func(s metricSpec) bool { return s.Name == "setup_s" }); i < 0 ||
		endToEndSpecs[i].Unit != "s" || endToEndSpecs[i].Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in seconds, lower is better")
	}
}

// The rot check: every workload once, untraced and traced, one second each.
// It catches drift in the API the benchmark drives within a test run; the
// numbers it produces mean nothing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds nine clusters twice; skipped with -short")
	}
	for _, traced := range []bool{false, true} {
		rf, err := suite(runConfig{seed: 1, seconds: 1, smoke: true, trace: traced}, 1)
		if err != nil {
			t.Fatal(err)
		}
		specs := endToEndSpecs
		if traced {
			specs = perLayerSpecs
		}
		for _, wr := range rf.Workloads {
			for _, s := range specs {
				if v, ok := wr.Runs[0].Metrics[s.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: metric %s missing or not a number (%v)", wr.Name, s.Name, v)
				}
			}
			if !traced {
				continue
			}
			if _, err := os.Stat(filepath.Join(outDir, "trace-"+wr.Name+".jsonl")); err != nil {
				t.Errorf("%s: no span file: %v", wr.Name, err)
			}
			m := wr.Runs[0].Metrics
			sum := m["ledger.runtime_self_us"] + m["ledger.udpnet_self_us"] + m["ledger.storage_self_us"] +
				m["ledger.durable_wait_us"] + m["ledger.uncovered_wait_us"]
			if c := m["ledger.client_mean_us"]; c <= 0 || math.Abs(sum-c) > 0.01*c {
				t.Errorf("%s: ledger rows sum to %v, client mean is %v", wr.Name, sum, c)
			}
		}
	}
}
