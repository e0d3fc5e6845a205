// The race detector's instrumentation changes allocation counts; CI runs
// these ceilings in its uninstrumented go test step.

//go:build !race

package fastraft

import (
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

// cluster3 wires three sans-io nodes together by hand: deliver routes every
// queued message until none is left, with the clock standing still. It
// drains into reused buffers and recycles each delivered envelope once Step
// returns, as a host and a transport do, so the counts below are the
// cores' own.
type cluster3 struct {
	nodes     map[types.NodeID]*Node
	out       []types.Envelope
	committed []types.Entry
	resolved  []types.Resolution
}

func newCluster3(t *testing.T) *cluster3 {
	ids := []types.NodeID{"n1", "n2", "n3"}
	c := &cluster3{nodes: map[types.NodeID]*Node{}}
	for _, id := range ids {
		c.nodes[id] = newTestNode(t, id, ids...)
	}
	return c
}

func (c *cluster3) deliver(now time.Duration) {
	for moved := true; moved; {
		moved = false
		for _, n := range c.nodes {
			c.out = n.DrainOutbox(c.out[:0])
			for _, env := range c.out {
				moved = true
				if to := c.nodes[env.To]; to != nil {
					to.Step(now, env)
				}
				types.RecycleEnvelope(env)
			}
			clear(c.out)
			c.committed = n.DrainCommitted(c.committed[:0])
			c.resolved = n.DrainResolved(c.resolved[:0])
			c.committed = n.DrainChangedEntries(c.committed[:0])
		}
	}
}

// electedCluster3 returns a three-member group led by n1 with the election
// no-op committed everywhere, and an instant at which no timer is due.
func electedCluster3(t *testing.T) (*cluster3, *Node, time.Duration) {
	c := newCluster3(t)
	now := time.Hour
	c.nodes["n1"].Tick(now) // far past any election timeout
	c.deliver(now)
	leader := c.nodes["n1"]
	if leader.Role() != types.RoleLeader {
		t.Fatalf("n1 role = %v, want leader", leader.Role())
	}
	leader.Tick(leader.NextDeadline()) // the heartbeat commits the election no-op everywhere
	now = leader.NextDeadline() - 1    // and no timer fires while measuring
	c.deliver(now)
	return c, leader, now
}

// TestFastRoundAllocs is the allocation ceiling of one three-member Fast
// Raft round on synchronous storage: the leader proposes, the proposal
// reaches both followers, their votes come back and the leader commits on
// the last one. The payload is copied once, at Propose; everything after
// that shares it. The round measured 8 allocations when the ceiling was
// set 10 % above that (it was 14 while drains handed their buffers away):
// besides the payload copy, per-proposal state (the pending record, its
// retry slot, the tally slot, the decision's voter list) and boxing the
// proposal and the two votes into their envelopes.
func TestFastRoundAllocs(t *testing.T) {
	c, leader, now := electedCluster3(t)
	data := []byte("payload-payload-payload")
	before := leader.CommitIndex()
	allocs := testing.AllocsPerRun(200, func() {
		leader.Propose(now, data)
		c.deliver(now)
	})
	if got := leader.CommitIndex() - before; got != 201 {
		t.Fatalf("leader committed %d entries in 201 rounds", got)
	}
	if allocs > 8.8 {
		t.Fatalf("one fast round: %.1f allocations, ceiling 8.8", allocs)
	}
}

// TestHeartbeatRoundAllocs is the allocation ceiling of one idle heartbeat
// round: the leader's tick sends both followers an entry-free
// AppendEntries and their acks come back. The round measured 4 allocations
// — boxing the two heartbeats and the two acks into their envelopes — when
// the ceiling was set 10 % above that: the peer lists, the read batch and
// the append plan allocate nothing.
func TestHeartbeatRoundAllocs(t *testing.T) {
	c, leader, now := electedCluster3(t)
	commit := leader.CommitIndex()
	allocs := testing.AllocsPerRun(200, func() {
		now = leader.NextDeadline()
		leader.Tick(now)
		c.deliver(now)
	})
	if leader.Role() != types.RoleLeader || leader.CommitIndex() != commit {
		t.Fatalf("idle rounds changed the group: role %v, commit %d → %d",
			leader.Role(), commit, leader.CommitIndex())
	}
	if allocs > 4.4 {
		t.Fatalf("one heartbeat round: %.1f allocations, ceiling 4.4", allocs)
	}
}
