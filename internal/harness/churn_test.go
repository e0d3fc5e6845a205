package harness

import (
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

// TestJoinUnderLoad adds a brand-new site while a proposer is running: the
// join must complete, the joiner must converge, and proposals must keep
// committing throughout.
func TestJoinUnderLoad(t *testing.T) {
	c := newTestCluster(t, KindFastRaft, 11, 0.01)
	if _, ok := c.WaitForLeader(10 * time.Second); !ok {
		t.Fatal("no leader")
	}
	p, err := c.StartProposer(ProposerOptions{Node: "n2", StopAfter: c.Sched.Now() + 40*time.Second, ThinkTime: PacedThink})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNode("n6", []types.NodeID{"n1", "n3"}); err != nil {
		t.Fatal(err)
	}
	joined := c.RunUntil(func() bool {
		h, ok := c.Leader()
		return ok && h.Machine().Config().Contains("n6")
	}, c.Sched.Now()+30*time.Second)
	if !joined {
		t.Fatal("join never completed under load")
	}
	// The joiner's machine must converge to the group's commit index.
	caughtUp := c.RunUntil(func() bool {
		h, ok := c.Leader()
		if !ok {
			return false
		}
		j := c.Host("n6")
		return j != nil && j.Machine().CommitIndex() >= h.Machine().CommitIndex()-5
	}, c.Sched.Now()+30*time.Second)
	if !caughtUp {
		t.Fatal("joiner never caught up")
	}
	if p.Completed == 0 {
		t.Fatal("no proposals committed during the join")
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicationTolerance injects heavy message duplication on top of
// loss: the protocols are idempotent, so safety and progress must hold and
// no entry may commit twice at different indices.
func TestDuplicationTolerance(t *testing.T) {
	c, err := NewCluster(Options{
		Kind:     KindFastRaft,
		Nodes:    fiveNodes(),
		Seed:     13,
		LossProb: 0.03,
		DupProb:  0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(10 * time.Second); !ok {
		t.Fatal("no leader")
	}
	sum, err := c.RunProposals("n4", 40, c.Sched.Now()+3*time.Minute)
	if err != nil {
		t.Fatalf("proposals under duplication: %v (%s)", err, sum)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
	if st := c.Net.Stats(); st.Duplicated == 0 {
		t.Fatal("duplication injector never fired")
	}
}

// TestRejoinAfterSilentRemoval: a site crashes, the leader removes it via
// the member timeout; when the site restarts from its stable storage it
// discovers the removal and rejoins automatically.
func TestRejoinAfterSilentRemoval(t *testing.T) {
	c, err := NewCluster(Options{
		Kind:                KindFastRaft,
		Nodes:               fiveNodes(),
		Seed:                17,
		MemberTimeoutRounds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(10 * time.Second); !ok {
		t.Fatal("no leader")
	}
	// Keep traffic flowing so heartbeats and removals proceed.
	if _, err := c.StartProposer(ProposerOptions{Node: "n1", StopAfter: c.Sched.Now() + 2*time.Minute, ThinkTime: PacedThink}); err != nil {
		t.Fatal(err)
	}
	victim := types.NodeID("n5")
	if h, _ := c.Leader(); h != nil && h.ID() == victim {
		victim = "n4"
	}
	c.Crash(victim)
	removed := c.RunUntil(func() bool {
		h, ok := c.Leader()
		return ok && !h.Machine().Config().Contains(victim)
	}, c.Sched.Now()+30*time.Second)
	if !removed {
		t.Fatal("silent leaver never removed")
	}
	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	rejoined := c.RunUntil(func() bool {
		h, ok := c.Leader()
		return ok && h.Machine().Config().Contains(victim)
	}, c.Sched.Now()+60*time.Second)
	if !rejoined {
		t.Fatal("restarted site never rejoined")
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulLeaveUnderLoad: an announced leave shrinks the configuration
// without disturbing safety or progress.
func TestGracefulLeaveUnderLoad(t *testing.T) {
	c := newTestCluster(t, KindFastRaft, 19, 0)
	if _, ok := c.WaitForLeader(10 * time.Second); !ok {
		t.Fatal("no leader")
	}
	p, err := c.StartProposer(ProposerOptions{Node: "n1", StopAfter: c.Sched.Now() + 30*time.Second, ThinkTime: PacedThink})
	if err != nil {
		t.Fatal(err)
	}
	leaver := types.NodeID("n4")
	if h, _ := c.Leader(); h != nil && h.ID() == leaver {
		leaver = "n5"
	}
	if err := c.Leave(leaver); err != nil {
		t.Fatal(err)
	}
	left := c.RunUntil(func() bool {
		h, ok := c.Leader()
		return ok && !h.Machine().Config().Contains(leaver)
	}, c.Sched.Now()+20*time.Second)
	if !left {
		t.Fatal("graceful leave never completed")
	}
	before := p.Completed
	c.RunFor(5 * time.Second)
	if p.Completed <= before {
		t.Fatal("proposals stalled after the leave")
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestQuorumLossStallsThenSilentLeaveRecovers reproduces the Figure 4
// dynamic at harness level: two of five sites leave silently; the fast
// track (quorum 4) is impossible until the leader shrinks the
// configuration, after which the fast track returns (quorum 3 of 3).
func TestQuorumLossStallsThenSilentLeaveRecovers(t *testing.T) {
	c, err := NewCluster(Options{
		Kind:                KindFastRaft,
		Nodes:               fiveNodes(),
		Seed:                23,
		LossProb:            0.05,
		MemberTimeoutRounds: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaderID, ok := c.WaitForLeader(10 * time.Second)
	if !ok {
		t.Fatal("no leader")
	}
	var proposer types.NodeID
	var leavers []types.NodeID
	for _, id := range fiveNodes() {
		switch {
		case id == leaderID:
		case proposer == types.None:
			proposer = id
		case len(leavers) < 2:
			leavers = append(leavers, id)
		}
	}
	p, err := c.StartProposer(ProposerOptions{Node: proposer, StopAfter: c.Sched.Now() + time.Minute, ThinkTime: PacedThink})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(10 * time.Second)
	for _, l := range leavers {
		c.Crash(l)
	}
	shrunk := c.RunUntil(func() bool {
		h, ok := c.Leader()
		return ok && h.Machine().Config().Size() == 3
	}, c.Sched.Now()+30*time.Second)
	if !shrunk {
		t.Fatal("configuration never shrank to the three survivors")
	}
	before := p.Completed
	c.RunFor(10 * time.Second)
	if p.Completed <= before {
		t.Fatal("no progress after reconfiguration")
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestNetworkStatsAccounting sanity-checks the simulator's bookkeeping
// under a normal run: everything sent is delivered, dropped, cut or
// unroutable.
func TestNetworkStatsAccounting(t *testing.T) {
	c := newTestCluster(t, KindFastRaft, 29, 0.1)
	if _, ok := c.WaitForLeader(10 * time.Second); !ok {
		t.Fatal("no leader")
	}
	if _, err := c.RunProposals("n3", 10, c.Sched.Now()+time.Minute); err != nil {
		t.Fatal(err)
	}
	st := c.Net.Stats()
	if st.Sent == 0 || st.Dropped == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Delivered+st.Dropped+st.Cut+st.Unroutable > st.Sent+st.Duplicated {
		t.Fatalf("accounting broken: %+v", st)
	}
}
