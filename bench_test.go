// Benchmarks regenerating the paper's evaluation, one per figure plus the
// ablations of internal/bench/ablation.go, and micro-benchmarks for the hot substrates.
//
// Each figure benchmark runs a complete simulated trial per iteration on
// virtual time (wall time is just simulation overhead) and reports the
// paper's metric as a custom benchmark metric:
//
//	go test -bench BenchmarkFig -benchmem
//
// Larger, paper-scale parameterizations (100 entries/trial, five 3-minute
// trials per point) run via cmd/hraft-bench.
package hraft_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	hraft "github.com/hraft-io/hraft"
	"github.com/hraft-io/hraft/internal/bench"
	"github.com/hraft-io/hraft/internal/harness"
	"github.com/hraft-io/hraft/internal/logstore"
	"github.com/hraft-io/hraft/internal/quorum"
	"github.com/hraft-io/hraft/internal/types"
)

// --- Figure 3: commit latency vs message loss ------------------------------

func BenchmarkFig3CommitLatency(b *testing.B) {
	for _, loss := range []float64{0, 1, 2.5, 5, 7.5, 10} {
		b.Run(fmt.Sprintf("loss=%g%%", loss), func(b *testing.B) {
			var raftMean, fastMean time.Duration
			for i := 0; i < b.N; i++ {
				rows, err := bench.Fig3CommitLatency(bench.Fig3Options{
					LossPercents: []float64{loss},
					Entries:      50,
					Trials:       1,
					Seed:         int64(1 + i),
				})
				if err != nil {
					b.Fatal(err)
				}
				raftMean += rows[0].Raft.Mean
				fastMean += rows[0].FastRaft.Mean
			}
			b.ReportMetric(float64(raftMean.Milliseconds())/float64(b.N), "raft-ms/commit")
			b.ReportMetric(float64(fastMean.Milliseconds())/float64(b.N), "fast-ms/commit")
			b.ReportMetric(float64(raftMean)/float64(fastMean), "speedup")
		})
	}
}

// --- Figure 4: silent leave latency timeline --------------------------------

func BenchmarkFig4SilentLeave(b *testing.B) {
	var before, during, after time.Duration
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig4SilentLeave(bench.Fig4Options{Seed: int64(1 + i)})
		if err != nil {
			b.Fatal(err)
		}
		before += res.Before.Mean
		during += res.During.Mean
		after += res.After.Mean
	}
	b.ReportMetric(float64(before.Milliseconds())/float64(b.N), "before-ms")
	b.ReportMetric(float64(during.Milliseconds())/float64(b.N), "during-ms")
	b.ReportMetric(float64(after.Milliseconds())/float64(b.N), "after-ms")
}

// --- Figure 5: throughput vs cluster count ----------------------------------

func BenchmarkFig5Throughput(b *testing.B) {
	for _, n := range []int{1, 2, 4, 5, 10} {
		b.Run(fmt.Sprintf("clusters=%d", n), func(b *testing.B) {
			var raft, craft float64
			for i := 0; i < b.N; i++ {
				rows, err := bench.Fig5Throughput(bench.Fig5Options{
					ClusterCounts: []int{n},
					TrialDuration: time.Minute,
					Trials:        1,
					Seed:          int64(1 + i),
				})
				if err != nil {
					b.Fatal(err)
				}
				raft += rows[0].RaftPerSec
				craft += rows[0].CraftPerSec
			}
			b.ReportMetric(raft/float64(b.N), "raft-entries/s")
			b.ReportMetric(craft/float64(b.N), "craft-entries/s")
			b.ReportMetric(craft/raft, "speedup")
		})
	}
}

// --- Ablations ---------------------------------------------------------------

func BenchmarkAblationFastTrack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationFastTrack(bench.Fig3Options{
			Entries: 50, Trials: 1, Seed: int64(1 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].Latency.Mean.Milliseconds()), "on-ms")
		b.ReportMetric(float64(rows[1].Latency.Mean.Milliseconds()), "off-ms")
	}
}

func BenchmarkAblationBatchSize(b *testing.B) {
	for _, size := range []int{1, 5, 10, 20, 50} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				rows, err := bench.AblationBatchSize(bench.Fig5Options{
					TrialDuration: time.Minute,
					Trials:        1,
					Seed:          int64(1 + i),
				}, 10, []int{size})
				if err != nil {
					b.Fatal(err)
				}
				total += rows[0].PerSec
			}
			b.ReportMetric(total/float64(b.N), "entries/s")
		})
	}
}

func BenchmarkAblationHeartbeat(b *testing.B) {
	for _, hb := range []time.Duration{25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond} {
		b.Run(fmt.Sprintf("hb=%s", hb), func(b *testing.B) {
			var raft, fast time.Duration
			for i := 0; i < b.N; i++ {
				rows, err := bench.AblationHeartbeat(bench.Fig3Options{
					Entries: 30, Trials: 1, Seed: int64(1 + i),
				}, []time.Duration{hb})
				if err != nil {
					b.Fatal(err)
				}
				raft += rows[0].Raft.Mean
				fast += rows[0].FastRaft.Mean
			}
			b.ReportMetric(float64(raft.Milliseconds())/float64(b.N), "raft-ms")
			b.ReportMetric(float64(fast.Milliseconds())/float64(b.N), "fast-ms")
		})
	}
}

// --- Read path: ReadIndex and lease reads ------------------------------------

// benchNodes is the flat-cluster membership used by the read benchmarks.
func benchNodes() []types.NodeID {
	return []types.NodeID{"n1", "n2", "n3", "n4", "n5"}
}

// readBenchCluster builds a flat 5-node cluster, elects a leader and
// commits one entry so the read floor is established, returning the
// cluster, the leader and one follower.
func readBenchCluster(b *testing.B, kind harness.Kind, seed int64) (*harness.Cluster, types.NodeID, types.NodeID) {
	b.Helper()
	c, err := harness.NewCluster(harness.Options{Kind: kind, Nodes: benchNodes(), Seed: seed, Audit: harness.AuditOff})
	if err != nil {
		b.Fatal(err)
	}
	leader, ok := c.WaitForLeader(30 * time.Second)
	if !ok {
		b.Fatal("no leader")
	}
	pid, err := c.Propose(leader, []byte("warm"))
	if err != nil {
		b.Fatal(err)
	}
	if _, ok := c.AwaitResolution(leader, pid, c.Sched.Now()+30*time.Second); !ok {
		b.Fatal("warm-up write never resolved")
	}
	var follower types.NodeID
	for _, id := range benchNodes() {
		if id != leader {
			follower = id
			break
		}
	}
	return c, leader, follower
}

// readBenchCraft builds a two-cluster C-Raft deployment with an elected
// hierarchy and one committed local entry, returning the deployment and a
// follower site of cluster A.
func readBenchCraft(b *testing.B, seed int64) (*harness.CraftCluster, types.NodeID) {
	b.Helper()
	c, err := harness.NewCraftCluster(harness.CraftOptions{
		Clusters: []harness.ClusterSpec{
			{ID: "cA", Sites: []types.NodeID{"a1", "a2", "a3"}, Region: "us-east-1"},
			{ID: "cB", Sites: []types.NodeID{"b1", "b2", "b3"}, Region: "eu-west-1"},
		},
		Seed:  seed,
		Audit: harness.AuditOff,
	})
	if err != nil {
		b.Fatal(err)
	}
	if !c.WaitForLeaders(60 * time.Second) {
		b.Fatal("no leaders")
	}
	pid, err := c.Propose("a1", []byte("warm"))
	if err != nil {
		b.Fatal(err)
	}
	if _, ok := c.AwaitResolution("a1", pid, c.Sched.Now()+30*time.Second); !ok {
		b.Fatal("warm-up write never resolved")
	}
	return c, "a1"
}

// awaitReads issues count sequential reads from a flat-cluster node and
// returns the virtual time they took.
func awaitReads(b *testing.B, c *harness.Cluster, from types.NodeID, cons types.ReadConsistency, count int) time.Duration {
	b.Helper()
	start := c.Sched.Now()
	for i := 0; i < count; i++ {
		tok, err := c.Read(from, cons)
		if err != nil {
			b.Fatal(err)
		}
		if d, ok := c.AwaitRead(from, tok, c.Sched.Now()+30*time.Second); !ok || !d.OK {
			b.Fatalf("read %d not confirmed (%+v ok=%v)", i, d, ok)
		}
	}
	return c.Sched.Now() - start
}

// awaitProposals commits count sequential no-op-sized proposals from a
// node and returns the virtual time they took.
func awaitProposals(b *testing.B, c *harness.Cluster, from types.NodeID, count int) time.Duration {
	b.Helper()
	start := c.Sched.Now()
	for i := 0; i < count; i++ {
		pid, err := c.Propose(from, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := c.AwaitResolution(from, pid, c.Sched.Now()+30*time.Second); !ok {
			b.Fatalf("proposal %d never resolved", i)
		}
	}
	return c.Sched.Now() - start
}

// perSecond converts a virtual elapsed time for count operations into
// ops/s, clamping the denominator so instantaneous completions stay
// finite.
func perSecond(count int, elapsed time.Duration) float64 {
	if elapsed < time.Microsecond {
		elapsed = time.Microsecond
	}
	return float64(count) / elapsed.Seconds()
}

// --- Tracing overhead --------------------------------------------------------

// BenchmarkProposalTracing measures the flight recorder's wall-clock cost
// on the proposal hot path: "off" is the default configuration, where
// every record call is a single nil check (allocation-freedom is pinned by
// TestDisabledRecorderZeroAlloc); "on" records the full event and span
// stream into each node's ring; "sampled" additionally mints a wire-
// propagated trace ID for every proposal, so each one pays the hop
// recording on every node it touches plus the trace varint on the wire.
// The simulation runs on virtual time, so any ns/op difference between
// the arms is pure recording/propagation overhead.
func BenchmarkProposalTracing(b *testing.B) {
	const perIter = 10
	for _, arm := range []struct {
		name   string
		traced bool
		sample int
	}{{"off", false, 0}, {"on", true, 0}, {"sampled", true, 1}} {
		b.Run(arm.name, func(b *testing.B) {
			c, err := harness.NewCluster(harness.Options{
				Kind:        harness.KindFastRaft,
				Nodes:       benchNodes(),
				Seed:        42,
				Trace:       arm.traced,
				TraceSample: arm.sample,
				// AuditOff in every arm: "off" pins the recorder-free
				// fast path, and the others stay pure recording-cost
				// measurements rather than recording + invariant checking.
				Audit: harness.AuditOff,
			})
			if err != nil {
				b.Fatal(err)
			}
			leader, ok := c.WaitForLeader(30 * time.Second)
			if !ok {
				b.Fatal("no leader")
			}
			awaitProposals(b, c, leader, 5) // warm the pipeline
			b.ResetTimer()
			var virtual time.Duration
			for i := 0; i < b.N; i++ {
				virtual += awaitProposals(b, c, leader, perIter)
			}
			b.ReportMetric(perSecond(perIter*b.N, virtual), "props/s")
		})
	}
}

// BenchmarkReadIndex measures quorum-confirmed linearizable read
// throughput (virtual time), reads issued closed-loop from a follower so
// every read pays forwarding plus one shared heartbeat round.
func BenchmarkReadIndex(b *testing.B) {
	const reads = 30
	for _, kind := range []harness.Kind{harness.KindRaft, harness.KindFastRaft} {
		b.Run(kind.String(), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				c, _, follower := readBenchCluster(b, kind, int64(1+i))
				total += awaitReads(b, c, follower, types.ReadLinearizable, reads)
			}
			b.ReportMetric(perSecond(reads*b.N, total), "reads/s")
		})
	}
	b.Run("craft", func(b *testing.B) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			c, site := readBenchCraft(b, int64(1+i))
			start := c.Sched.Now()
			for r := 0; r < reads; r++ {
				tok, err := c.Read(site, types.ReadLinearizable)
				if err != nil {
					b.Fatal(err)
				}
				if d, ok := c.AwaitRead(site, tok, c.Sched.Now()+30*time.Second); !ok || !d.OK {
					b.Fatalf("local read %d not confirmed (%+v ok=%v)", r, d, ok)
				}
			}
			total += c.Sched.Now() - start
		}
		b.ReportMetric(perSecond(reads*b.N, total), "reads/s")
	})
}

// BenchmarkLeaseRead measures lease-read throughput against committed
// no-op proposals on the same simnet topology (the acceptance target is
// >= 5x). Reads are issued closed-loop from a follower, so each still
// pays one intra-cluster forwarding round trip — the leader itself serves
// them clock-free.
func BenchmarkLeaseRead(b *testing.B) {
	const (
		reads     = 50
		proposals = 15
	)
	for _, kind := range []harness.Kind{harness.KindRaft, harness.KindFastRaft} {
		b.Run(kind.String(), func(b *testing.B) {
			var readTime, propTime time.Duration
			for i := 0; i < b.N; i++ {
				c, _, follower := readBenchCluster(b, kind, int64(1+i))
				// Warm the lease with one awaited lease read.
				awaitReads(b, c, follower, types.ReadLeaseBased, 1)
				readTime += awaitReads(b, c, follower, types.ReadLeaseBased, reads)
				propTime += awaitProposals(b, c, follower, proposals)
			}
			rps := perSecond(reads*b.N, readTime)
			pps := perSecond(proposals*b.N, propTime)
			b.ReportMetric(rps, "reads/s")
			b.ReportMetric(pps, "proposals/s")
			b.ReportMetric(rps/pps, "speedup")
		})
	}
	b.Run("craft", func(b *testing.B) {
		var readTime, propTime time.Duration
		for i := 0; i < b.N; i++ {
			c, site := readBenchCraft(b, int64(1+i))
			doReads := func(count int) time.Duration {
				start := c.Sched.Now()
				for r := 0; r < count; r++ {
					tok, err := c.Read(site, types.ReadLeaseBased)
					if err != nil {
						b.Fatal(err)
					}
					if d, ok := c.AwaitRead(site, tok, c.Sched.Now()+30*time.Second); !ok || !d.OK {
						b.Fatalf("lease read %d not confirmed (%+v ok=%v)", r, d, ok)
					}
				}
				return c.Sched.Now() - start
			}
			doReads(1) // lease warm-up
			readTime += doReads(reads)
			start := c.Sched.Now()
			for p := 0; p < proposals; p++ {
				pid, err := c.Propose(site, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, ok := c.AwaitResolution(site, pid, c.Sched.Now()+30*time.Second); !ok {
					b.Fatalf("proposal %d never resolved", p)
				}
			}
			propTime += c.Sched.Now() - start
		}
		rps := perSecond(reads*b.N, readTime)
		pps := perSecond(proposals*b.N, propTime)
		b.ReportMetric(rps, "reads/s")
		b.ReportMetric(pps, "proposals/s")
		b.ReportMetric(rps/pps, "speedup")
	})
}

// --- Substrate micro-benchmarks ----------------------------------------------

func BenchmarkCodecEncodeAppendEntries(b *testing.B) {
	env := sampleAppendEntries()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := types.EncodeEnvelope(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecodeAppendEntries(b *testing.B) {
	env := sampleAppendEntries()
	buf, err := types.EncodeEnvelope(env)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := types.DecodeEnvelope(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func sampleAppendEntries() types.Envelope {
	entries := make([]types.Entry, 10)
	for i := range entries {
		entries[i] = types.Entry{
			Index:    types.Index(i + 1),
			Term:     3,
			Kind:     types.KindNormal,
			Approval: types.ApprovedLeader,
			PID:      types.ProposalID{Proposer: "n2", Seq: uint64(i + 1)},
			Data:     []byte("payload-payload-payload"),
		}
	}
	return types.Envelope{
		From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{
			Term: 3, LeaderID: "n1", PrevLogIndex: 10, PrevLogTerm: 3,
			Entries: entries, LeaderCommit: 9, Round: 77,
		},
	}
}

func BenchmarkLogstoreAppendLeader(b *testing.B) {
	b.ReportAllocs()
	cfg := types.NewConfig("a", "b", "c")
	log := logstore.New(cfg)
	for i := 0; i < b.N; i++ {
		idx := types.Index(i + 1)
		e := types.Entry{Kind: types.KindNormal, Data: []byte("x")}
		if err := log.AppendLeader(idx, e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTallyDecide(b *testing.B) {
	cfg := types.NewConfig("a", "b", "c", "d", "e")
	voters := cfg.Members
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := quorum.NewTally()
		e := types.Entry{Kind: types.KindNormal, PID: types.ProposalID{Proposer: "a", Seq: uint64(i)}}
		for _, v := range voters {
			t.AddVote(1, v, e)
		}
		if _, ok := t.Decide(1, cfg, nil); !ok {
			b.Fatal("no decision")
		}
	}
}

// --- Raw-speed hot path (group commit, zero-alloc codec, apply pipeline) ----

// BenchmarkCodecAppendEncodeAppendEntries is the steady-state encode path:
// AppendEnvelope into a reused buffer, as the UDP transport sends. The
// allocation count is pinned in CI (hraft-benchcmp): the reused-buffer
// encode must stay allocation-free.
func BenchmarkCodecAppendEncodeAppendEntries(b *testing.B) {
	env := sampleAppendEntries()
	buf, err := types.AppendEnvelope(nil, env)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = types.AppendEnvelope(buf[:0], env)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline measures end-to-end committed entries/s on a real
// single-node group over the file-backed segmented WAL: Propose → WAL
// append → fsync → commit → apply pipeline → resolution, on wall time
// with real disk syncs.
//
// The sync variant fsyncs inline on every mutation (the classic
// one-write-one-fsync storage); the group variants run the group-commit
// flusher in eager mode, so the proposals in flight share fsyncs while
// every commit still waits for durability. batch is the number of
// concurrent closed-loop proposers.
func BenchmarkPipeline(b *testing.B) {
	const entriesPerTrial = 240 // divisible by every batch size below
	payload := []byte("pipeline-benchmark-payload")

	run := func(b *testing.B, opt hraft.WALOptions, batch int) {
		store, err := hraft.OpenWALOptions(b.TempDir()+"/wal", opt)
		if err != nil {
			b.Fatal(err)
		}
		net := hraft.NewInProcNetwork(1)
		node, err := hraft.NewNode(hraft.Options{
			ID:                "n1",
			Peers:             []hraft.NodeID{"n1"},
			Transport:         net.Endpoint("n1"),
			Storage:           store,
			HeartbeatInterval: 10 * time.Millisecond,
			Seed:              1,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			node.Stop()
			net.Close()
		}()
		go func() {
			for range node.Commits() {
			}
		}()
		deadline := time.Now().Add(5 * time.Second)
		for node.Role() != hraft.Leader {
			if time.Now().After(deadline) {
				b.Fatal("single node never became leader")
			}
			time.Sleep(time.Millisecond)
		}

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for g := 0; g < batch; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < entriesPerTrial/batch; j++ {
						if _, err := node.Propose(context.Background(), payload); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		}
		b.StopTimer()
		b.ReportMetric(float64(entriesPerTrial*b.N)/b.Elapsed().Seconds(), "entries/s")
	}

	b.Run("sync/batch=1", func(b *testing.B) {
		run(b, hraft.WALOptions{}, 1)
	})
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("group/batch=%d", batch), func(b *testing.B) {
			// Negative SyncWindow = eager flusher: natural batching under
			// concurrency without added latency.
			run(b, hraft.WALOptions{GroupCommit: true, SyncWindow: -1}, batch)
		})
	}
}

// --- Shard scaling: aggregate throughput across groups ----------------------

// BenchmarkShardScaling multiplexes N single-member consensus groups in one
// process over one shared group-commit WAL and drives one sequential
// proposer per group. A single group's throughput is bounded by its commit
// round trip (append → fsync → resolve); independent groups overlap those
// round trips while the shared flusher folds their appends into common
// fsyncs, so aggregate entries/s should scale near-linearly with the group
// count until fsync bandwidth saturates. hraft-benchcmp gates 8-group ≥ 2x
// single-group on the same run.
func BenchmarkShardScaling(b *testing.B) {
	const entriesPerGroup = 24
	payload := []byte("shard-scaling-benchmark-payload")

	// Fixed-width hex starts keep lexicographic order numeric: group i owns
	// keys prefixed by its index, group 0 owns the bottom of the keyspace.
	specs := func(n int) ([]hraft.ShardGroup, []string) {
		groups := make([]hraft.ShardGroup, n)
		keys := make([]string, n)
		for i := 0; i < n; i++ {
			start := ""
			if i > 0 {
				start = fmt.Sprintf("%02x", i)
			}
			groups[i] = hraft.ShardGroup{ID: hraft.GroupID(fmt.Sprintf("g%02x", i)), Start: start}
			keys[i] = fmt.Sprintf("%02x-key", i)
		}
		return groups, keys
	}

	run := func(b *testing.B, n int) {
		groups, keys := specs(n)
		stores, meta, err := hraft.OpenShardWAL(b.TempDir()+"/wal",
			hraft.WALOptions{GroupCommit: true, SyncWindow: -1})
		if err != nil {
			b.Fatal(err)
		}
		net := hraft.NewInProcNetwork(1)
		node, err := hraft.NewShardNode(hraft.ShardOptions{
			ID:                "p1",
			Peers:             []hraft.NodeID{"p1"},
			Groups:            groups,
			Transport:         net.Endpoint("p1"),
			Storage:           stores,
			Meta:              meta,
			HeartbeatInterval: 10 * time.Millisecond,
			Seed:              1,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			node.Stop()
			net.Close()
		}()
		go func() {
			for range node.Commits() {
			}
		}()
		deadline := time.Now().Add(10 * time.Second)
		for {
			leaders := 0
			for _, g := range node.ShardStatus() {
				if g.Role == "leader" {
					leaders++
				}
			}
			if leaders == n {
				break
			}
			if time.Now().After(deadline) {
				b.Fatalf("only %d/%d groups elected a leader", leaders, n)
			}
			time.Sleep(time.Millisecond)
		}

		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for g := 0; g < n; g++ {
				wg.Add(1)
				go func(key string) {
					defer wg.Done()
					for j := 0; j < entriesPerGroup; j++ {
						if _, err := node.Propose(context.Background(), key, payload); err != nil {
							b.Error(err)
							return
						}
					}
				}(keys[g])
			}
			wg.Wait()
		}
		b.StopTimer()
		b.ReportMetric(float64(n*entriesPerGroup*b.N)/b.Elapsed().Seconds(), "entries/s")
		b.ReportMetric(float64(n), "groups")
	}

	for _, n := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("groups=%d", n), func(b *testing.B) { run(b, n) })
	}
}
