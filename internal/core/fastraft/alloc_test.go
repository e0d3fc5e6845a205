// The race detector's instrumentation changes allocation counts; CI runs
// this ceiling in its uninstrumented go test step.

//go:build !race

package fastraft

import (
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

// cluster3 wires three sans-io nodes together by hand: deliver routes every
// queued message until none is left, with the clock standing still.
type cluster3 map[types.NodeID]*Node

func (c cluster3) deliver(now time.Duration) {
	for moved := true; moved; {
		moved = false
		for _, n := range c {
			for _, env := range n.TakeOutbox() {
				moved = true
				if to := c[env.To]; to != nil {
					to.Step(now, env)
				}
			}
			n.TakeCommitted()
			n.TakeResolved()
			n.TakeChangedEntries()
		}
	}
}

// TestFastRoundAllocs is the allocation ceiling of one three-member Fast
// Raft round on synchronous storage: the leader proposes, the proposal
// reaches both followers, their votes come back and the leader commits on
// the last one. The payload is copied once, at Propose; everything after
// that shares it. The round measured 14 allocations when the ceiling was
// set 10 % above that.
func TestFastRoundAllocs(t *testing.T) {
	ids := []types.NodeID{"n1", "n2", "n3"}
	c := cluster3{}
	for _, id := range ids {
		c[id] = newTestNode(t, id, ids...)
	}
	now := time.Hour
	c["n1"].Tick(now) // far past any election timeout
	c.deliver(now)
	leader := c["n1"]
	if leader.Role() != types.RoleLeader {
		t.Fatalf("n1 role = %v, want leader", leader.Role())
	}
	leader.Tick(leader.NextDeadline()) // the heartbeat commits the election no-op everywhere
	now = leader.NextDeadline() - 1    // and no timer fires while measuring
	c.deliver(now)

	data := []byte("payload-payload-payload")
	before := leader.CommitIndex()
	allocs := testing.AllocsPerRun(200, func() {
		leader.Propose(now, data)
		c.deliver(now)
	})
	if got := leader.CommitIndex() - before; got != 201 {
		t.Fatalf("leader committed %d entries in 201 rounds", got)
	}
	if allocs > 15 {
		t.Fatalf("one fast round: %.0f allocations, ceiling 15", allocs)
	}
}
