package harness

import (
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

// snapshotTap records what one node receives: whether any InstallSnapshot
// arrived, and the lowest AppendEntries entry index delivered.
type snapshotTap struct {
	installs  int
	minAEIdx  types.Index
	aeEntries int
}

func tapNode(c *Cluster, target types.NodeID) *snapshotTap {
	tap := &snapshotTap{}
	c.Net.OnDeliver = func(env types.Envelope) {
		if env.To != target {
			return
		}
		switch m := env.Msg.(type) {
		case types.InstallSnapshot:
			tap.installs++
		case types.AppendEntries:
			for _, e := range m.Entries {
				tap.aeEntries++
				if tap.minAEIdx == 0 || e.Index < tap.minAEIdx {
					tap.minAEIdx = e.Index
				}
			}
		}
	}
	return tap
}

// minAliveBoundary returns the smallest snapshot boundary across alive
// nodes other than skip: no alive node can replicate entries at or below
// it, whatever leadership churn follows.
func minAliveBoundary(t *testing.T, c *Cluster, skip types.NodeID) types.Index {
	t.Helper()
	var min types.Index
	first := true
	for id, h := range c.Hosts() {
		if id == skip || !h.Alive() {
			continue
		}
		if b := h.Machine().SnapshotIndex(); first || b < min {
			min, first = b, false
		}
	}
	return min
}

// testSnapshotCatchUp is the acceptance scenario for both protocol kinds: a
// follower is down while the leader commits far past the compaction
// threshold; on restart it must converge through InstallSnapshot and never
// be sent the compacted prefix.
func testSnapshotCatchUp(t *testing.T, kind Kind) {
	t.Helper()
	const threshold = 20
	c, err := NewCluster(Options{
		Kind:              kind,
		Nodes:             fiveNodes(),
		Seed:              11,
		SnapshotThreshold: threshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	// A few entries land on the lagging node before it crashes.
	if _, err := c.RunProposals("n1", 3, c.Sched.Now()+30*time.Second); err != nil {
		t.Fatalf("warm-up proposals: %v", err)
	}
	c.RunFor(time.Second) // let followers learn the commit index
	const lagger = types.NodeID("n5")
	c.Crash(lagger)

	// Commit well past the compaction threshold while the lagger is down.
	if _, err := c.RunProposals("n1", 3*threshold, c.Sched.Now()+120*time.Second); err != nil {
		t.Fatalf("bulk proposals: %v", err)
	}
	// Let every alive node pass its compaction tick.
	c.RunFor(2 * time.Second)
	boundary := minAliveBoundary(t, c, lagger)
	if boundary == 0 {
		t.Fatal("no alive node compacted; threshold not reached")
	}
	laggerLast := c.Host(lagger).Machine().LastIndex()
	if laggerLast >= boundary {
		t.Fatalf("scenario broken: lagger last index %d not behind boundary %d", laggerLast, boundary)
	}

	tap := tapNode(c, lagger)
	if err := c.Restart(lagger); err != nil {
		t.Fatal(err)
	}
	converged := c.RunUntil(func() bool {
		h, ok := c.Leader()
		if !ok {
			return false
		}
		return c.Host(lagger).Machine().CommitIndex() >= h.Machine().CommitIndex() &&
			h.Machine().CommitIndex() > boundary
	}, c.Sched.Now()+60*time.Second)
	if !converged {
		t.Fatalf("lagger did not converge (lagger commit %d)", c.Host(lagger).Machine().CommitIndex())
	}
	if tap.installs == 0 {
		t.Fatal("lagger converged without receiving InstallSnapshot")
	}
	// The compacted prefix must never be replicated entry-by-entry.
	if tap.minAEIdx != 0 && tap.minAEIdx <= boundary {
		t.Fatalf("lagger received compacted entry %d (boundary %d)", tap.minAEIdx, boundary)
	}
	// The restarted node's own log must now start above 1.
	if c.Host(lagger).Machine().FirstIndex() == 1 {
		t.Fatal("lagger log not based on a snapshot after catch-up")
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestFastRaftSnapshotCatchUpAfterRestart(t *testing.T) {
	testSnapshotCatchUp(t, KindFastRaft)
}

func TestRaftSnapshotCatchUpAfterRestart(t *testing.T) {
	testSnapshotCatchUp(t, KindRaft)
}

// TestFastRaftSnapshotCatchUpAfterPartition covers the partition flavour: a
// follower cut off from the group (not crashed) while the rest compacts
// past its log must converge through InstallSnapshot once healed.
func TestFastRaftSnapshotCatchUpAfterPartition(t *testing.T) {
	const threshold = 20
	c, err := NewCluster(Options{
		Kind:              KindFastRaft,
		Nodes:             fiveNodes(),
		Seed:              13,
		SnapshotThreshold: threshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	const lagger = types.NodeID("n4")
	rest := []types.NodeID{"n1", "n2", "n3", "n5"}
	c.Net.Partition([]types.NodeID{lagger}, rest)

	if _, err := c.RunProposals("n1", 3*threshold, c.Sched.Now()+120*time.Second); err != nil {
		t.Fatalf("bulk proposals: %v", err)
	}
	c.RunFor(2 * time.Second)
	boundary := minAliveBoundary(t, c, lagger)
	if boundary == 0 {
		t.Fatal("no node compacted during the partition")
	}

	tap := tapNode(c, lagger)
	c.Net.Heal()
	converged := c.RunUntil(func() bool {
		return c.Host(lagger).Machine().CommitIndex() > boundary
	}, c.Sched.Now()+120*time.Second)
	if !converged {
		t.Fatalf("partitioned node did not converge (commit %d, boundary %d)",
			c.Host(lagger).Machine().CommitIndex(), boundary)
	}
	if tap.installs == 0 {
		t.Fatal("partitioned node converged without receiving InstallSnapshot")
	}
	if tap.minAEIdx != 0 && tap.minAEIdx <= boundary {
		t.Fatalf("partitioned node received compacted entry %d (boundary %d)", tap.minAEIdx, boundary)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}
