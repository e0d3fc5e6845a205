package harness

import (
	"fmt"
	"testing"
	"time"

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
		if m := metricsOf(h.Machine()); m["fastraft.commits_fast"] != 0 {
			t.Fatalf("%s committed %d entries on the fast track", id, m["fastraft.commits_fast"])
		}
	}
	lm := metricsOf(c.Host(leader).Machine())
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

func TestDeterminismSameSeedSameResult(t *testing.T) {
	run := func() (types.Index, time.Duration) {
		c := newTestCluster(t, KindFastRaft, 42, 0.02)
		if _, ok := c.WaitForLeader(10 * time.Second); !ok {
			t.Fatal("no leader")
		}
		if _, err := c.RunProposals("n1", 15, c.Sched.Now()+2*time.Minute); err != nil {
			t.Fatalf("proposals: %v", err)
		}
		h, _ := c.Leader()
		return h.Machine().CommitIndex(), c.Sched.Now()
	}
	i1, t1 := run()
	i2, t2 := run()
	if i1 != i2 || t1 != t2 {
		t.Fatalf("same seed diverged: (%d,%s) vs (%d,%s)", i1, t1, i2, t2)
	}
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
		m := metricsOf(c.Host(leader).Machine())
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
