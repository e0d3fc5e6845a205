package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	hraft "github.com/hraft-io/hraft"
	"github.com/hraft-io/hraft/internal/logstore"
	"github.com/hraft-io/hraft/internal/quorum"
	"github.com/hraft-io/hraft/internal/types"
)

// --- Samplers ----------------------------------------------------------------

// sampler polls something at a fixed period while a window is measured.
type sampler struct {
	quit chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

func startSampler(every time.Duration, poll func()) *sampler {
	s := &sampler{quit: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				poll()
			case <-s.quit:
				return
			}
		}
	}()
	return s
}

// stop ends the sampler and waits for it; a nil sampler (untraced pass) and
// a second call are both fine.
func (s *sampler) stop() {
	if s == nil {
		return
	}
	s.once.Do(func() { close(s.quit) })
	s.wg.Wait()
}

// samplePeriod is how often the traced pass polls PeerStatus and the global
// backlog.
const samplePeriod = 10 * time.Millisecond

// replicaSamples is what the 10 ms sampler saw of the leader's view of its
// followers.
type replicaSamples struct {
	lagEntries []float64
	srttUs     []float64
	inflightB  float64
}

// startSampler polls the leader's PeerStatus. Lag is measured against the
// furthest position the leader has sent or had acknowledged to any peer.
func (t *tracer) startSampler(b *nodeBench) *sampler {
	if t == nil || b.size == 1 {
		return nil
	}
	return startSampler(samplePeriod, func() {
		peers := b.lead.node.PeerStatus()
		var front hraft.Index
		for _, p := range peers {
			front = max(front, p.Match, p.Next-1)
		}
		t.mu.Lock()
		for _, p := range peers {
			t.replica.lagEntries = append(t.replica.lagEntries, float64(front-p.Match))
			if p.SRTT > 0 {
				t.replica.srttUs = append(t.replica.srttUs, float64(p.SRTT)/float64(time.Microsecond))
			}
			t.replica.inflightB = max(t.replica.inflightB, float64(p.InflightBytes))
		}
		t.mu.Unlock()
	})
}

// startLagSampler polls how many of the proposer's proposals are locally
// committed and not yet globally ordered.
func (t *tracer) startLagSampler(b *craftBench) *sampler {
	if t == nil {
		return nil
	}
	return startSampler(samplePeriod, func() {
		lag := b.proposer.tkLocal.seenCount() - b.proposer.tkGbl.seenCount()
		t.mu.Lock()
		t.globalLagMax = max(t.globalLagMax, float64(lag))
		t.mu.Unlock()
	})
}

// --- Stand-alone layer timings -----------------------------------------------

// timedLoop runs fn in batches and returns the median over repeats of the
// time one call took, and the heap allocations per call.
func timedLoop(repeats, batch int, fn func()) (nsPerCall, allocsPerCall float64) {
	var ns []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := 0; r < repeats; r++ {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		ns = append(ns, float64(time.Since(start))/float64(batch))
	}
	runtime.ReadMemStats(&ms1)
	return median(ns), float64(ms1.Mallocs-ms0.Mallocs) / float64(repeats*batch)
}

// sampleFrame is the 10-entry AppendEntries frame bench_test.go times.
func sampleFrame() types.Envelope {
	entries := make([]types.Entry, 10)
	for i := range entries {
		entries[i] = types.Entry{
			Index: types.Index(i + 1), Term: 3, Kind: types.KindNormal, Approval: types.ApprovedLeader,
			PID:  types.ProposalID{Proposer: "n2", Seq: uint64(i + 1)},
			Data: []byte("payload-payload-payload"),
		}
	}
	return types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal, Msg: types.AppendEntries{
		Term: 3, LeaderID: "n1", PrevLogIndex: 10, PrevLogTerm: 3, Entries: entries, LeaderCommit: 9, Round: 77,
	}}
}

// standalone times single layers outside any cluster: what one call costs on
// this machine when nothing else contends.
func standalone(dir string, out map[string]float64) error {
	env := sampleFrame()
	buf, err := types.AppendEnvelope(nil, env)
	if err != nil {
		return err
	}
	out["types.encode_ns_per_frame"], _ = timedLoop(10, 2000, func() {
		buf, _ = types.AppendEnvelope(buf[:0], env) // encoded once above without error
	})
	out["types.decode_ns_per_frame"], out["types.decode_allocs_per_frame"] = timedLoop(10, 2000, func() {
		if dec, err := types.DecodeEnvelope(buf); err == nil {
			types.RecycleEnvelope(dec)
		}
	})

	cfg := types.NewConfig("a", "b", "c")
	log, next := logstore.New(cfg), types.Index(0)
	out["logstore.append_ns_per_entry"], out["logstore.append_allocs_per_entry"] = timedLoop(10, 2000, func() {
		next++
		_ = log.AppendLeader(next, types.Entry{Kind: types.KindNormal, Data: []byte("x")}) // fresh consecutive slot
	})
	five := types.NewConfig("a", "b", "c", "d", "e")
	seq := uint64(0)
	out["quorum.tally_decide_ns"], out["quorum.tally_decide_allocs"] = timedLoop(10, 1000, func() {
		seq++
		t := quorum.NewTally()
		e := types.Entry{Kind: types.KindNormal, PID: types.ProposalID{Proposer: "a", Seq: seq}}
		for _, v := range five.Members {
			t.AddVote(1, v, e)
		}
		t.Decide(1, five, nil)
	})

	if out["udpnet.loopback_rtt_us_p50"], err = loopbackRTT(); err != nil {
		return err
	}
	if fs := fsType(dir); fs == "tmpfs" || fs == "ramfs" {
		fmt.Fprintf(os.Stderr, "benchmark: %s is on %s, where fsync is free: storage.sync_append_us_p50 is not measured and reads 0\n", dir, fs)
		return nil
	}
	out["storage.sync_append_us_p50"], err = syncAppend(filepath.Join(dir, fmt.Sprintf("sync-%d", os.Getpid())))
	return err
}

// loopbackRTT ping-pongs a heartbeat-sized envelope between two UDP
// transports: the floor of one hop and back, encode and decode included.
func loopbackRTT() (float64, error) {
	a, err := hraft.ListenUDP("a", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := hraft.ListenUDP("b", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer b.Close()
	if err := a.AddPeer("b", b.LocalAddr()); err != nil {
		return 0, err
	}
	if err := b.AddPeer("a", a.LocalAddr()); err != nil {
		return 0, err
	}
	beat := types.AppendEntries{Term: 3, LeaderID: "a", PrevLogIndex: 10, PrevLogTerm: 3, LeaderCommit: 9, Round: 77}
	back := make(chan struct{}, 1)
	b.SetHandler(func(hraft.Envelope) {
		_ = b.Send(hraft.Envelope{From: "b", To: "a", Layer: types.LayerLocal, Msg: beat}) // loss shows as a timeout below
	})
	a.SetHandler(func(hraft.Envelope) { back <- struct{}{} })
	var us []float64
	for i := 0; i < 2000; i++ {
		start := time.Now()
		if err := a.Send(hraft.Envelope{From: "a", To: "b", Layer: types.LayerLocal, Msg: beat}); err != nil {
			return 0, err
		}
		select {
		case <-back:
			us = append(us, float64(time.Since(start))/float64(time.Microsecond))
		case <-time.After(100 * time.Millisecond): // a lost datagram; try the next
		}
	}
	if len(us) == 0 {
		return 0, fmt.Errorf("loopback UDP returned no datagram")
	}
	return percentile(sortedCopy(us), 50), nil
}

// syncAppend times the fully synchronous WAL: this disk's raw write+fsync.
func syncAppend(dir string) (float64, error) {
	wal, err := hraft.OpenWAL(dir)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	data := make([]byte, payloadBytes)
	var us []float64
	for i := 1; i <= 200; i++ {
		start := time.Now()
		if err := wal.AppendEntry(hraft.Entry{Index: hraft.Index(i), Term: 1, Kind: hraft.EntryNormal, Data: data}); err != nil {
			_ = wal.Close() // the append error is the one reported
			return 0, err
		}
		us = append(us, float64(time.Since(start))/float64(time.Microsecond))
	}
	return percentile(sortedCopy(us), 50), wal.Close()
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// --- Assembly ----------------------------------------------------------------

// histMean is sum÷count of one of the nodes' stage histograms, in µs.
func histMean(c map[string]uint64, base string) float64 {
	if n := c[base+".count"]; n > 0 {
		return float64(c[base+".sum_us"]) / float64(n)
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pct is percentile for the per-layer table, where a layer the workload
// bypasses has no samples and reads 0.
func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return percentile(sorted, p)
}

// layerMetrics assembles every per-layer metric of the traced pass. A metric
// whose layer the workload bypasses reads 0, which is the prediction the
// README states for it.
func layerMetrics(t *tracer, m *measured, info map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, spec := range perLayerSpecs {
		out[spec.Name] = 0
	}
	if err := standalone(outDir, out); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: stand-alone layer timings: %v\n", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n, c := &t.n, m.counters
	commits, secs := float64(m.commits), m.window.Seconds()
	writes := m.writes.samples()

	out["types.wire_bytes_per_commit"] = ratio(float64(n.wireBytes), commits)
	if m.wire {
		out["udpnet.msgs_per_commit"] = ratio(float64(n.sendMsgs), commits)
		out["udpnet.send_busy_us_per_msg"] = ratio(float64(n.sendNs)/1e3, float64(n.sendMsgs))
		out["udpnet.send_errors"] = float64(n.sendErrs)
	}

	out["runtime.propose_call_us_p50"] = pct(sortedCopy(t.proposeUs), 50)
	out["runtime.deliver_busy_us_per_msg"] = ratio(float64(n.deliverNs)/1e3, float64(n.deliverMsgs))
	out["runtime.commits_chan_depth_max"] = m.chanDepth
	out["runtime.cpu_ms_per_commit"] = ratio(m.cpuMs, float64(len(m.writes.latMs)))
	out["runtime.allocs_per_commit"] = ratio(m.mallocs, commits)
	out["runtime.gc_pause_ms_total"] = m.gcPauseMs
	out["runtime.peak_rss_mb"] = peakRSSMB()
	out["runtime.goroutines"] = m.goroutines

	out["storage.append_call_us_p50"] = pct(sortedCopy(n.appendCallUs), 50)
	out["storage.fsyncs_per_commit"] = ratio(float64(n.fsyncs), commits)
	out["storage.records_per_fsync"] = ratio(float64(n.fsyncRecords), float64(n.fsyncs))
	fs := sortedCopy(n.fsyncMs)
	out["storage.fsync_ms_p50"], out["storage.fsync_ms_p99"] = pct(fs, 50), pct(fs, 99)
	out["storage.wal_bytes_per_commit"] = ratio(float64(n.fsyncBytes), commits)
	lw := sortedCopy(n.lsnWaitMs)
	out["durable.lsn_wait_ms_p50"], out["durable.lsn_wait_ms_p99"] = pct(lw, 50), pct(lw, 99)

	out["replica.entries_per_append"] = ratio(float64(n.appendEntries), float64(n.appends))
	lag := sortedCopy(t.replica.lagEntries)
	out["replica.follower_lag_entries_p50"] = pct(lag, 50)
	out["replica.follower_lag_entries_max"] = pct(lag, 100)
	out["replica.srtt_us_p50"] = pct(sortedCopy(t.replica.srttUs), 50)
	out["replica.inflight_bytes_max"] = t.replica.inflightB
	out["replica.appends_byte_limited"] = float64(c["replica.appends_byte_limited"] + c["local.replica.appends_byte_limited"] + c["global.replica.appends_byte_limited"])
	out["replica.appends_throttled"] = float64(c["replica.appends_throttled"] + c["local.replica.appends_throttled"] + c["global.replica.appends_throttled"])

	out["fastraft.commit_latency_in_heartbeats"] = pct(writes, 50) / (float64(heartbeat) / float64(time.Millisecond))
	out["fastraft.vote_msgs_per_commit"] = ratio(float64(n.byType["VoteEntry"]), commits)
	out["fastraft.append_msgs_per_commit"] = ratio(float64(n.appends), commits)
	out["fastraft.heartbeat_msgs_per_s"] = ratio(float64(n.heartbeats), secs)
	out["fastraft.dup_commits"] = info["fastraft.dup_commits"]
	out["fastraft.term_changes"] = m.termChanges
	out["fastraft.proposals_queued"] = float64(c["fastraft.proposals_queued"] + c["local.fastraft.proposals_queued"])

	reads := m.layers["readpath.reads_issued"]
	served := float64(c["readpath.reads_index"] + c["readpath.reads_lease"] + c["readpath.reads_follower_local"])
	out["readpath.reads_per_confirm_round"] = ratio(served, float64(c["readpath.batches_confirmed"]))
	out["readpath.msgs_per_read"] = ratio(float64(n.byType["ReadRequest"]+n.byType["ReadReply"]), reads)
	out["readpath.reads_failed"] = float64(c["readpath.reads_failed"])
	for k, v := range m.layers {
		out[k] = v
	}
	delete(out, "readpath.reads_issued")
	if lease := m.layers["readpath.lease_reads_issued"]; lease > 0 {
		out["readpath.lease_hit_frac"] = float64(c["readpath.reads_lease"]) / lease
	}
	delete(out, "readpath.lease_reads_issued")

	out["craft.batches_throttled"] = float64(c["craft.batches_throttled"])
	out["craft.global_lag_entries_max"] = t.globalLagMax
	if entries := m.layers["craft.entries_ordered"]; entries > 0 {
		out["craft.global_msgs_per_entry"] = float64(n.byLayer["global"]) / entries
		out["craft.local_msgs_per_entry"] = float64(n.byLayer["local"]) / entries
	}
	delete(out, "craft.entries_ordered")

	l := buildLedger(t.spans)
	out["ledger.client_mean_us"] = l.clientUs
	out["ledger.runtime_self_us"] = l.runtimeUs
	out["ledger.udpnet_self_us"] = l.udpnetUs
	out["ledger.storage_self_us"] = l.storageUs
	out["ledger.durable_wait_us"] = l.durableUs
	out["ledger.uncovered_wait_us"] = l.uncoveredUs()
	out["ledger.coverage_frac"] = l.coverage()

	for _, stage := range []string{"propose", "append", "replicate", "quorum", "commit", "apply", "total"} {
		out["trace.stage_"+stage+"_mean_us"] = histMean(c, "hist.stage_"+stage) + histMean(c, "local.hist.stage_"+stage)
	}
	out["trace.stage_total_over_client"] = ratio(out["trace.stage_total_mean_us"], mean(m.writes.latMs)*1e3)
	out["trace.overhead_frac"] = info["trace.overhead_frac"]

	out["gen.late_ms_p99"], out["gen.late_ms_max"] = info["gen.late_ms_p99"], info["gen.late_ms_max"]
	out["gen.max_rate_ok"] = info["max_rate_ok"]
	return out
}
