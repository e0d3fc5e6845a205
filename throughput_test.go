package hraft_test

// Same-run throughput gates. Each test measures two arms on the same machine
// in the same run and requires a ratio between them, so the gate holds on
// any hardware: group commit must beat one fsync per entry, and independent
// groups multiplexed over one shared WAL must overlap their commit round
// trips.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	hraft "github.com/hraft-io/hraft"
)

// pipelineRate commits entries on a single-member group over a file-backed
// WAL, split across the given number of concurrent closed-loop proposers,
// and returns committed entries per wall-clock second: Propose → WAL append
// → fsync → commit → apply pipeline → resolution.
func pipelineRate(t *testing.T, opt hraft.WALOptions, proposers, entries int) float64 {
	t.Helper()
	payload := []byte("pipeline-benchmark-payload")
	store, err := hraft.OpenWALOptions(t.TempDir()+"/wal", opt)
	if err != nil {
		t.Fatal(err)
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
		t.Fatal(err)
	}
	defer func() {
		node.Stop()
		net.Close()
	}()
	go func() {
		for range node.Commits() {
		}
	}()
	waitShard(t, 5*time.Second, "single node leadership", func() bool { return node.Role() == hraft.Leader })

	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < proposers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < entries/proposers; j++ {
				if _, err := node.Propose(context.Background(), payload); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return float64(entries) / time.Since(start).Seconds()
}

// TestGroupCommitPipelineSpeedup: 64 concurrent proposers over the eager
// group-commit WAL must commit at least 3x the entries/s of one proposer
// over the synchronous WAL (one fsync per mutation).
func TestGroupCommitPipelineSpeedup(t *testing.T) {
	const entries = 240 // divisible by both proposer counts
	sync1 := pipelineRate(t, hraft.WALOptions{}, 1, entries)
	// Negative SyncWindow = eager flusher: natural batching under
	// concurrency without added latency.
	group64 := pipelineRate(t, hraft.WALOptions{GroupCommit: true, SyncWindow: -1}, 64, entries)
	t.Logf("group/batch=64 %.0f entries/s, sync/batch=1 %.0f entries/s: %.1fx", group64, sync1, group64/sync1)
	if group64 < 3*sync1 {
		t.Fatalf("group commit pipeline only %.1fx over per-entry fsync (need 3x)", group64/sync1)
	}
}

// shardRate multiplexes n single-member consensus groups in one process over
// one shared eager group-commit WAL, drives one sequential proposer per
// group, and returns the aggregate committed entries per wall-clock second.
func shardRate(t *testing.T, n, perGroup int) float64 {
	t.Helper()
	payload := []byte("shard-scaling-benchmark-payload")
	// Fixed-width hex starts keep lexicographic order numeric: group i owns
	// keys prefixed by its index, group 0 owns the bottom of the keyspace.
	groups := make([]hraft.ShardGroup, n)
	keys := make([]string, n)
	for i := range groups {
		start := ""
		if i > 0 {
			start = fmt.Sprintf("%02x", i)
		}
		groups[i] = hraft.ShardGroup{ID: hraft.GroupID(fmt.Sprintf("g%02x", i)), Start: start}
		keys[i] = fmt.Sprintf("%02x-key", i)
	}
	stores, meta, err := hraft.OpenShardWAL(t.TempDir()+"/wal",
		hraft.WALOptions{GroupCommit: true, SyncWindow: -1})
	if err != nil {
		t.Fatal(err)
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
		t.Fatal(err)
	}
	defer func() {
		node.Stop()
		net.Close()
	}()
	go func() {
		for range node.Commits() {
		}
	}()
	waitShard(t, 10*time.Second, "every group elects a leader", func() bool {
		leaders := 0
		for _, g := range node.ShardStatus() {
			if g.Role == "leader" {
				leaders++
			}
		}
		return leaders == n
	})

	start := time.Now()
	var wg sync.WaitGroup
	for _, key := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perGroup; j++ {
				if _, err := node.Propose(context.Background(), key, payload); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return float64(n*perGroup) / time.Since(start).Seconds()
}

// TestShardScaling: a single group's throughput is bounded by its commit
// round trip (append → fsync → resolve); eight independent groups overlap
// those round trips while the shared flusher folds their appends into common
// fsyncs, so their aggregate must reach at least 2x one group's. The arms
// alternate (1, 8, 1, 8, ...) for five runs each and their medians are
// compared, so a burst of CPU contention — other test binaries building on
// a small machine — lands on both arms instead of deciding the ratio. On a
// fast disk that round trip is mostly CPU, which -race slows several-fold,
// so the ratio then measures the instrumentation rather than the overlap:
// the gate runs in ordinary builds only.
func TestShardScaling(t *testing.T) {
	if raceEnabled {
		t.Skip("CPU-bound ratio gate; not meaningful under -race")
	}
	const perGroup, runs = 24, 5
	var one, eight []float64
	for range runs {
		one = append(one, shardRate(t, 1, perGroup))
		eight = append(eight, shardRate(t, 8, perGroup))
	}
	slices.Sort(one)
	slices.Sort(eight)
	m1, m8 := one[runs/2], eight[runs/2]
	t.Logf("8 groups %.0f entries/s (runs %.0f), 1 group %.0f entries/s (runs %.0f): medians %.1fx", m8, eight, m1, one, m8/m1)
	if m8 < 2*m1 {
		t.Fatalf("8-group shard throughput only %.1fx over single-group in the median (need 2x)", m8/m1)
	}
}
