package harness

import (
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/replica"
	"github.com/hraft-io/hraft/internal/types"
)

// streamTap records the InstallSnapshot traffic a run produces: chunk
// payload sizes, whole-image sends, and per-target delivery counts.
type streamTap struct {
	chunks       int
	maxChunkLen  int
	wholeImages  int
	doneChunks   int
	toTarget     int
	target       types.NodeID
	minAEIdx     types.Index
	otherTraffic func(types.Envelope)
}

func tapSnapshotStream(c *Cluster, target types.NodeID) *streamTap {
	tap := &streamTap{target: target}
	c.Net.OnDeliver = func(env types.Envelope) {
		switch m := env.Msg.(type) {
		case types.InstallSnapshot:
			if env.To == target {
				tap.toTarget++
			}
			if !m.Snapshot.IsZero() {
				tap.wholeImages++
				return
			}
			tap.chunks++
			if len(m.Data) > tap.maxChunkLen {
				tap.maxChunkLen = len(m.Data)
			}
			if m.Done {
				tap.doneChunks++
			}
		case types.AppendEntries:
			if env.To != target {
				return
			}
			for _, e := range m.Entries {
				if tap.minAEIdx == 0 || e.Index < tap.minAEIdx {
					tap.minAEIdx = e.Index
				}
			}
		}
		if tap.otherTraffic != nil {
			tap.otherTraffic(env)
		}
	}
	return tap
}

// testChunkedSnapshotCatchUp is the acceptance scenario for chunked
// snapshot streaming: with MaxSnapshotChunk set, a lagging follower must
// converge through a chunked InstallSnapshot stream, no chunk may exceed
// the cap, no whole-image message may appear on the wire, and the
// compacted prefix must never be replicated entry-by-entry.
func testChunkedSnapshotCatchUp(t *testing.T, kind Kind) {
	t.Helper()
	const (
		threshold = 20
		chunkCap  = 8 // bytes; far below the encoded snapshot size
	)
	c, err := NewCluster(Options{
		Kind:              kind,
		Nodes:             fiveNodes(),
		Seed:              17,
		SnapshotThreshold: threshold,
		MaxSnapshotChunk:  chunkCap,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	const lagger = types.NodeID("n5")
	c.Crash(lagger)
	if _, err := c.RunProposals("n1", 3*threshold, c.Sched.Now()+120*time.Second); err != nil {
		t.Fatalf("bulk proposals: %v", err)
	}
	c.RunFor(2 * time.Second)
	boundary := minAliveBoundary(t, c, lagger)
	if boundary == 0 {
		t.Fatal("no alive node compacted; threshold not reached")
	}

	tap := tapSnapshotStream(c, lagger)
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
		t.Fatalf("lagger did not converge (commit %d)", c.Host(lagger).Machine().CommitIndex())
	}
	if tap.chunks == 0 {
		t.Fatal("no snapshot chunks observed; scenario broken")
	}
	if tap.wholeImages != 0 {
		t.Fatalf("%d whole-image InstallSnapshot messages sent despite chunking", tap.wholeImages)
	}
	if tap.maxChunkLen > chunkCap {
		t.Fatalf("an InstallSnapshot chunk carried %d bytes, cap is %d", tap.maxChunkLen, chunkCap)
	}
	if tap.doneChunks == 0 {
		t.Fatal("no Done chunk observed; stream never completed on the wire")
	}
	if tap.minAEIdx != 0 && tap.minAEIdx <= boundary {
		t.Fatalf("lagger received compacted entry %d (boundary %d)", tap.minAEIdx, boundary)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestFastRaftChunkedSnapshotCatchUp(t *testing.T) {
	testChunkedSnapshotCatchUp(t, KindFastRaft)
}

func TestRaftChunkedSnapshotCatchUp(t *testing.T) {
	testChunkedSnapshotCatchUp(t, KindRaft)
}

// testPendingInstallSuppressesResends pins the pending-install flag: while
// a follower's snapshot transfer is unacknowledged (its replies are cut),
// the leader must not re-send the full snapshot every broadcast round —
// only the sparse resend-timeout retries are allowed. Before the replica
// tracker this scenario produced one full snapshot per heartbeat.
func testPendingInstallSuppressesResends(t *testing.T, kind Kind) {
	t.Helper()
	const threshold = 20
	hb := 100 * time.Millisecond
	c, err := NewCluster(Options{
		Kind:              kind,
		Nodes:             fiveNodes(),
		Seed:              23,
		HeartbeatInterval: hb,
		SnapshotThreshold: threshold,
		// Keep silent-leave detection out of the way: the lagger's replies
		// are deliberately cut for many rounds.
		MemberTimeoutRounds: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	const lagger = types.NodeID("n5")
	c.Crash(lagger)
	if _, err := c.RunProposals("n1", 3*threshold, c.Sched.Now()+120*time.Second); err != nil {
		t.Fatalf("bulk proposals: %v", err)
	}
	c.RunFor(2 * time.Second)
	if minAliveBoundary(t, c, lagger) == 0 {
		t.Fatal("no alive node compacted")
	}

	// Cut the lagger's outbound links: it receives the snapshot but its
	// replies never reach the leader, so the install stays pending.
	rest := []types.NodeID{"n1", "n2", "n3", "n4"}
	for _, other := range rest {
		c.Net.Block(lagger, other)
	}
	tap := tapSnapshotStream(c, lagger)
	if err := c.Restart(lagger); err != nil {
		t.Fatal(err)
	}
	const window = 4 * time.Second // ~40 broadcast rounds
	c.RunFor(window)
	if tap.toTarget == 0 {
		t.Fatal("no InstallSnapshot reached the lagger; scenario broken")
	}
	// Resend timeout defaults to 4 heartbeats: over 40 rounds that allows
	// ~10 sends plus the initial one; one-per-round would be ~40.
	if tap.toTarget > 15 {
		t.Fatalf("%d InstallSnapshot messages in %v despite pending install (want sparse timeout resends)",
			tap.toTarget, window)
	}

	// Heal the reply direction; the transfer must now complete.
	for _, other := range rest {
		c.Net.Unblock(lagger, other)
	}
	converged := c.RunUntil(func() bool {
		h, ok := c.Leader()
		if !ok {
			return false
		}
		return c.Host(lagger).Machine().CommitIndex() >= h.Machine().CommitIndex()
	}, c.Sched.Now()+60*time.Second)
	if !converged {
		t.Fatalf("lagger did not converge after healing (commit %d)",
			c.Host(lagger).Machine().CommitIndex())
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestFastRaftPendingInstallSuppressesResends(t *testing.T) {
	testPendingInstallSuppressesResends(t, KindFastRaft)
}

func TestRaftPendingInstallSuppressesResends(t *testing.T) {
	testPendingInstallSuppressesResends(t, KindRaft)
}

// TestFastRaftChunkedInstallConvergesUnderLoss drives the chunked transfer
// through a lossy, duplicating network (20% drop, 10% duplication, latency
// jitter reordering chunks): the ack-offset/resend protocol must still
// reassemble and install the snapshot, with every chunk within the cap.
func TestFastRaftChunkedInstallConvergesUnderLoss(t *testing.T) {
	const (
		threshold = 20
		chunkCap  = 8
	)
	c, err := NewCluster(Options{
		Kind:              KindFastRaft,
		Nodes:             fiveNodes(),
		Seed:              29,
		SnapshotThreshold: threshold,
		MaxSnapshotChunk:  chunkCap,
		LossProb:          0.20,
		DupProb:           0.10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(20 * time.Second); !ok {
		t.Fatal("no leader")
	}
	const lagger = types.NodeID("n4")
	c.Crash(lagger)
	if _, err := c.RunProposals("n1", 3*threshold, c.Sched.Now()+600*time.Second); err != nil {
		t.Fatalf("bulk proposals: %v", err)
	}
	c.RunFor(2 * time.Second)
	boundary := minAliveBoundary(t, c, lagger)
	if boundary == 0 {
		t.Fatal("no alive node compacted")
	}

	tap := tapSnapshotStream(c, lagger)
	if err := c.Restart(lagger); err != nil {
		t.Fatal(err)
	}
	converged := c.RunUntil(func() bool {
		return c.Host(lagger).Machine().CommitIndex() > boundary
	}, c.Sched.Now()+300*time.Second)
	if !converged {
		t.Fatalf("lagger did not converge under loss (commit %d, boundary %d)",
			c.Host(lagger).Machine().CommitIndex(), boundary)
	}
	if tap.chunks == 0 {
		t.Fatal("no snapshot chunks observed")
	}
	if tap.wholeImages != 0 {
		t.Fatalf("%d whole-image sends despite chunking", tap.wholeImages)
	}
	if tap.maxChunkLen > chunkCap {
		t.Fatalf("chunk of %d bytes exceeds cap %d", tap.maxChunkLen, chunkCap)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestChunkedInstallMetrics checks the observability slice end to end: a
// chunked catch-up must move the tracker's chunk counters on the leader
// and the install counters on the follower.
func TestChunkedInstallMetrics(t *testing.T) {
	const threshold = 20
	c, err := NewCluster(Options{
		Kind:              KindFastRaft,
		Nodes:             fiveNodes(),
		Seed:              31,
		SnapshotThreshold: threshold,
		MaxSnapshotChunk:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	const lagger = types.NodeID("n5")
	c.Crash(lagger)
	if _, err := c.RunProposals("n1", 3*threshold, c.Sched.Now()+120*time.Second); err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Second)
	if err := c.Restart(lagger); err != nil {
		t.Fatal(err)
	}
	if !c.RunUntil(func() bool {
		h, ok := c.Leader()
		return ok && c.Host(lagger).Machine().CommitIndex() >= h.Machine().CommitIndex()
	}, c.Sched.Now()+60*time.Second) {
		t.Fatal("no convergence")
	}
	var sent, installed uint64
	for id, h := range c.Hosts() {
		m := h.Machine().Metrics()
		sent += m[replica.CounterChunksSent]
		if id == lagger {
			installed = m[replica.CounterInstalls]
		}
	}
	if sent == 0 {
		t.Fatal("no chunk sends counted in metrics")
	}
	if installed == 0 {
		t.Fatal("lagger counted no snapshot installs")
	}
}
