package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/runtime"
	"github.com/hraft-io/hraft/internal/types"
)

func ids(names ...string) []types.NodeID {
	out := make([]types.NodeID, len(names))
	for i, n := range names {
		out[i] = types.NodeID(n)
	}
	return out
}

func fiveNodes() []types.NodeID { return ids("n1", "n2", "n3", "n4", "n5") }

func newTestCluster(t *testing.T, kind Kind, seed int64, loss float64) *Cluster {
	t.Helper()
	c, err := NewCluster(Options{
		Kind:     kind,
		Nodes:    fiveNodes(),
		Seed:     seed,
		LossProb: loss,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

func TestRaftElectsLeader(t *testing.T) {
	c := newTestCluster(t, KindRaft, 1, 0)
	leader, ok := c.WaitForLeader(5 * time.Second)
	if !ok {
		t.Fatal("no leader elected within 5s of virtual time")
	}
	if leader == types.None {
		t.Fatal("empty leader id")
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestFastRaftElectsLeader(t *testing.T) {
	c := newTestCluster(t, KindFastRaft, 1, 0)
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader elected within 5s of virtual time")
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestRaftCommitsProposals(t *testing.T) {
	c := newTestCluster(t, KindRaft, 2, 0)
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	sum, err := c.RunProposals("n2", 20, c.Sched.Now()+60*time.Second)
	if err != nil {
		t.Fatalf("proposals: %v (summary %s)", err, sum)
	}
	if sum.Count != 20 {
		t.Fatalf("want 20 resolutions, got %d", sum.Count)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
	t.Logf("classic raft latency: %s", sum)
}

// TestRaftClassicWireShape pins what KindRaft puts on the wire on a
// loss-free run: every follower proposal reaches the leader as exactly one
// ClientPropose, nothing takes the fast track (no ProposeEntry, no
// VoteEntry, no fast commit), and each commit is answered with one
// CommitNotify.
func TestRaftClassicWireShape(t *testing.T) {
	c := newTestCluster(t, KindRaft, 4, 0)
	leader, ok := c.WaitForLeader(5 * time.Second)
	if !ok {
		t.Fatal("no leader")
	}
	proposer := types.NodeID("n2")
	if leader == proposer {
		proposer = "n3"
	}
	sent := map[string]int{}
	c.Net.OnDeliver = func(env types.Envelope) { sent[env.Msg.MsgName()]++ }
	const n = 30
	if _, err := c.RunProposals(proposer, n, c.Sched.Now()+60*time.Second); err != nil {
		t.Fatal(err)
	}
	if sent["ClientPropose"] != n || sent["CommitNotify"] != n {
		t.Fatalf("%d ClientPropose and %d CommitNotify for %d follower proposals, want %d each",
			sent["ClientPropose"], sent["CommitNotify"], n, n)
	}
	if sent["ProposeEntry"] != 0 || sent["VoteEntry"] != 0 {
		t.Fatalf("fast-track traffic in a classic group: %v", sent)
	}
	for id, h := range c.Hosts() {
		if m := h.Machine().Metrics(); m["fastraft.commits_fast"] != 0 {
			t.Fatalf("%s committed %d entries on the fast track", id, m["fastraft.commits_fast"])
		}
	}
	lm := c.Host(leader).Machine().Metrics()
	if lm["fastraft.commits_classic"] < n {
		t.Fatalf("leader counted %d classic commits for %d proposals", lm["fastraft.commits_classic"], n)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestFastRaftCommitsProposals(t *testing.T) {
	c := newTestCluster(t, KindFastRaft, 2, 0)
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	sum, err := c.RunProposals("n2", 20, c.Sched.Now()+60*time.Second)
	if err != nil {
		t.Fatalf("proposals: %v (summary %s)", err, sum)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
	t.Logf("fast raft latency: %s", sum)
}

func TestFastRaftFasterThanRaftAtZeroLoss(t *testing.T) {
	run := func(kind Kind) time.Duration {
		c := newTestCluster(t, kind, 7, 0)
		if _, ok := c.WaitForLeader(5 * time.Second); !ok {
			t.Fatalf("%v: no leader", kind)
		}
		sum, err := c.RunProposals("n3", 50, c.Sched.Now()+120*time.Second)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := c.Safety.Err(); err != nil {
			t.Fatal(err)
		}
		return sum.Mean
	}
	classic := run(KindRaft)
	fast := run(KindFastRaft)
	t.Logf("classic=%s fast=%s ratio=%.2f", classic, fast, float64(classic)/float64(fast))
	if fast >= classic {
		t.Fatalf("fast raft (%s) should beat classic raft (%s) at zero loss", fast, classic)
	}
}

func TestRaftLeaderCrashFailover(t *testing.T) {
	c := newTestCluster(t, KindRaft, 3, 0)
	leader, ok := c.WaitForLeader(5 * time.Second)
	if !ok {
		t.Fatal("no leader")
	}
	if _, err := c.RunProposals("n1", 5, c.Sched.Now()+30*time.Second); err != nil {
		t.Fatalf("pre-crash proposals: %v", err)
	}
	c.Crash(leader)
	newLeader, ok := c.WaitForLeader(c.Sched.Now() + 10*time.Second)
	if !ok {
		t.Fatal("no new leader after crash")
	}
	if newLeader == leader {
		t.Fatalf("crashed node %s still leader", leader)
	}
	var prop types.NodeID
	for _, id := range fiveNodes() {
		if id != leader {
			prop = id
			break
		}
	}
	if _, err := c.RunProposals(prop, 5, c.Sched.Now()+30*time.Second); err != nil {
		t.Fatalf("post-crash proposals: %v", err)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestFastRaftLeaderCrashRecovery(t *testing.T) {
	c := newTestCluster(t, KindFastRaft, 4, 0)
	leader, ok := c.WaitForLeader(5 * time.Second)
	if !ok {
		t.Fatal("no leader")
	}
	if _, err := c.RunProposals("n2", 10, c.Sched.Now()+30*time.Second); err != nil {
		t.Fatalf("pre-crash proposals: %v", err)
	}
	c.Crash(leader)
	if _, ok := c.WaitForLeader(c.Sched.Now() + 10*time.Second); !ok {
		t.Fatal("no new leader after crash")
	}
	var prop types.NodeID
	for _, id := range fiveNodes() {
		if id != leader {
			prop = id
			break
		}
	}
	if _, err := c.RunProposals(prop, 10, c.Sched.Now()+60*time.Second); err != nil {
		t.Fatalf("post-crash proposals: %v", err)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestFastRaftCommitsUnderLoss(t *testing.T) {
	c := newTestCluster(t, KindFastRaft, 5, 0.05)
	if _, ok := c.WaitForLeader(10 * time.Second); !ok {
		t.Fatal("no leader")
	}
	sum, err := c.RunProposals("n4", 30, c.Sched.Now()+5*time.Minute)
	if err != nil {
		t.Fatalf("proposals under loss: %v (%s)", err, sum)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
	t.Logf("fast raft at 5%% loss: %s", sum)
}

// TestDeterminismSameSeedSameResult runs one scenario per cluster type
// twice under the same seed and requires the same record both times: every
// host's full commit stream and every proposal resolution, each with its
// virtual instant, plus the final clock. Each scenario crashes where the
// host loop's event order matters most — inside a group-commit fsync window,
// a C-Raft site, a shard process after a split.
func TestDeterminismSameSeedSameResult(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) []string
	}{
		{"cluster-groupcommit", flatDeterminismRun},
		{"craft-3x3", craftDeterminismRun},
		{"shard-split-crash", shardDeterminismRun},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.run(t), tc.run(t)
			for i := range min(len(a), len(b)) {
				if a[i] != b[i] {
					t.Fatalf("same seed diverged at record %d:\n  %s\nvs\n  %s", i, a[i], b[i])
				}
			}
			if len(a) != len(b) {
				t.Fatalf("same seed diverged: %d records vs %d", len(a), len(b))
			}
			commits, resolutions := 0, 0
			for _, r := range a {
				switch {
				case strings.Contains(r, " commit "):
					commits++
				case strings.Contains(r, " resolve "):
					resolutions++
				}
			}
			if commits == 0 || resolutions == 0 {
				t.Fatalf("scenario recorded %d commits and %d resolutions", commits, resolutions)
			}
		})
	}
}

// watchNode appends n's commits and proposal resolutions, with their
// virtual instants, to rec.
func watchNode[M runtime.Machine](rec *[]string, n *node[M]) {
	n.OnCommit = func(e types.Entry) {
		*rec = append(*rec, fmt.Sprintf("%s commit %d/%d %s %x @%s", n.id, e.Index, e.Term, e.PID, e.Data, n.s.Sched.Now()))
	}
	n.OnResolve = func(pid types.ProposalID, at, latency time.Duration) {
		*rec = append(*rec, fmt.Sprintf("%s resolve %s @%s after %s", n.id, pid, at, latency))
	}
}

// flatDeterminismRun: Fast Raft on group-commit storage at 2% loss, the
// leader crashing half a millisecond into an fsync window it holds open.
func flatDeterminismRun(t *testing.T) []string {
	c, err := NewCluster(Options{Kind: KindFastRaft, Nodes: fiveNodes(), Seed: 42, LossProb: 0.02, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	var rec []string
	for _, h := range c.Hosts() {
		watchNode(&rec, &h.node)
	}
	leader, ok := c.WaitForLeader(10 * time.Second)
	if !ok {
		t.Fatal("no leader")
	}
	propose := func(rounds int, at ...types.NodeID) {
		for i := range rounds {
			if _, err := c.Propose(at[i%len(at)], []byte(fmt.Sprintf("w%d@%s", i, c.Sched.Now()))); err != nil {
				t.Fatal(err)
			}
			c.RunFor(5 * time.Millisecond)
		}
	}
	propose(12, "n1", "n2", "n3", "n4", "n5")
	if _, err := c.Propose(leader, []byte("in-window")); err != nil {
		t.Fatal(err)
	}
	c.RunFor(500 * time.Microsecond)
	if !c.Host(leader).durable.Pending() {
		t.Fatal("the crash is not inside an open fsync window")
	}
	c.Crash(leader)
	var rest []types.NodeID
	for _, id := range fiveNodes() {
		if id != leader {
			rest = append(rest, id)
		}
	}
	propose(12, rest...)
	if err := c.Restart(leader); err != nil {
		t.Fatal(err)
	}
	propose(12, fiveNodes()...)
	c.RunFor(time.Second)
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
	return append(rec, fmt.Sprintf("end @%s", c.Sched.Now()))
}

// craftDeterminismRun: three clusters of three sites, one cluster's leader
// site crashing and restarting under load.
func craftDeterminismRun(t *testing.T) []string {
	c, err := NewCraftCluster(CraftOptions{
		Clusters: []ClusterSpec{
			{ID: "cA", Sites: ids("a1", "a2", "a3"), Region: "us-east-1"},
			{ID: "cB", Sites: ids("b1", "b2", "b3"), Region: "eu-west-1"},
			{ID: "cC", Sites: ids("c1", "c2", "c3"), Region: "ap-southeast-1"},
		},
		Seed:      42,
		BatchSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rec []string
	for _, spec := range c.Specs() {
		for _, site := range spec.Sites {
			h := c.Host(site)
			watchNode(&rec, &h.node)
			h.OnGlobalCommit = func(e types.Entry) {
				rec = append(rec, fmt.Sprintf("%s commit global %d/%d %x @%s", h.id, e.Index, e.Term, e.Data, c.Sched.Now()))
			}
		}
	}
	if !c.WaitForLeaders(time.Minute) {
		t.Fatal("no leaders")
	}
	propose := func(rounds int, at ...types.NodeID) {
		for i := range rounds {
			if _, err := c.Propose(at[i%len(at)], []byte(fmt.Sprintf("w%d@%s", i, c.Sched.Now()))); err != nil {
				t.Fatal(err)
			}
			c.RunFor(20 * time.Millisecond)
		}
	}
	propose(15, "a1", "b2", "c3")
	victim, ok := c.LocalLeader("cB")
	if !ok {
		t.Fatal("cB has no leader")
	}
	c.Crash(victim.ID())
	propose(15, "a1", "c3")
	if err := c.Restart(victim.ID()); err != nil {
		t.Fatal(err)
	}
	propose(15, "a1", "b2", "c3")
	c.RunFor(3 * time.Second)
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
	return append(rec, fmt.Sprintf("end @%s", c.Sched.Now()))
}

// shardDeterminismRun: four groups on three processes, a split, then one
// process crashing and restarting with traffic on the survivors.
func shardDeterminismRun(t *testing.T) []string {
	c := newShardCluster(t, ShardOptions{Seed: 42, RetireDrain: 50 * time.Millisecond})
	var rec []string
	for _, h := range c.Hosts() {
		watchNode(&rec, &h.node)
	}
	if !c.WaitForAllLeaders(10 * time.Second) {
		t.Fatal("not every group elected a leader")
	}
	propose := func(tag string, at ...types.NodeID) {
		for i, key := range []string{"alpha", "golf", "kilo", "november", "tango", "zulu"} {
			if _, _, err := c.ProposeKey(at[i%len(at)], key, []byte(tag+":"+key)); err != nil {
				t.Fatal(err)
			}
			c.RunFor(10 * time.Millisecond)
		}
	}
	propose("pre", "p1", "p2", "p3")
	if _, _, err := c.Split("g-k", "k"); err != nil {
		t.Fatal(err)
	}
	propose("split", "p1", "p2", "p3")
	c.RunFor(time.Second)
	c.Crash("p3")
	propose("down", "p1", "p2")
	c.RunFor(500 * time.Millisecond)
	if err := c.Restart("p3"); err != nil {
		t.Fatal(err)
	}
	propose("after", "p1", "p2", "p3")
	c.RunFor(2 * time.Second)
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
	return append(rec, fmt.Sprintf("end @%s", c.Sched.Now()))
}

// TestFastTrackResumesAfterCollision pins the end of PR 12's finding (a): a
// Fast Raft leader used to decide before it advanced its commit index, so
// the first decision that missed its fast quorum left every later one a
// heartbeat behind on the classic track for as long as load stayed steady.
// Now commits are evaluated first (and as acks arrive): one collision costs
// the colliding entries, and the steady load queued behind them, a trip
// over the classic track — and within two heartbeats every commit is
// fast-track again.
func TestFastTrackResumesAfterCollision(t *testing.T) {
	const (
		heartbeat = 100 * time.Millisecond
		pace      = 10 * time.Millisecond // steady load: ten proposals a heartbeat
	)
	c, err := NewCluster(Options{
		Kind:              KindFastRaft,
		Nodes:             ids("n1", "n2", "n3"),
		Seed:              5,
		HeartbeatInterval: heartbeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	leader, ok := c.WaitForLeader(5 * time.Second)
	if !ok {
		t.Fatal("no leader")
	}
	var followers []types.NodeID
	for _, id := range ids("n1", "n2", "n3") {
		if id != leader {
			followers = append(followers, id)
		}
	}
	counters := func() (fast, classic, onTick uint64) {
		m := c.Host(leader).Machine().Metrics()
		return m["fastraft.commits_fast"], m["fastraft.commits_classic"], m["fastraft.decisions_on_tick"]
	}
	load := func(d time.Duration) (proposed uint64) {
		for end := c.Sched.Now() + d; c.Sched.Now() < end; proposed++ {
			if _, err := c.Propose(followers[0], []byte(fmt.Sprintf("steady-%d", c.Sched.Now()))); err != nil {
				t.Fatal(err)
			}
			c.RunFor(pace)
		}
		return proposed
	}

	load(5 * heartbeat)
	fast0, classic0, tick0 := counters()
	if fast0 == 0 {
		t.Fatal("steady load is not on the fast track to begin with")
	}
	// The collision: the other follower proposes at the same instant, for
	// the same free index; neither entry can gather all three votes.
	if _, err := c.Propose(followers[1], []byte("collider")); err != nil {
		t.Fatal(err)
	}
	load(2 * heartbeat)
	fast1, classic1, tick1 := counters()
	if classic1 == classic0 || tick1 == tick0 {
		t.Fatalf("no collision forced: classic commits %d -> %d, tick decisions %d -> %d",
			classic0, classic1, tick0, tick1)
	}

	proposed := load(10 * heartbeat)
	c.RunFor(heartbeat)
	fast2, classic2, tick2 := counters()
	if classic2 != classic1 || tick2 != tick1 {
		t.Fatalf("still on the classic track two heartbeats after the collision: classic commits %d -> %d, tick decisions %d -> %d",
			classic1, classic2, tick1, tick2)
	}
	// (A proposal that lost its slot in the collision may be retried in
	// this window and add one.)
	if fast2-fast1 < proposed {
		t.Fatalf("fast-track commits = %d for %d later proposals", fast2-fast1, proposed)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}
