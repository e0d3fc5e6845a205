package harness

import (
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/replica"
	"github.com/hraft-io/hraft/internal/simnet"
	"github.com/hraft-io/hraft/internal/types"
)

// testByteBudgetBoundedOnWire pins the byte-budgeted append window: with a
// small MaxInflightBytes and a generous message cap, a catching-up
// follower must converge through appends none of which carries more
// encoded entry bytes than the budget, the leader-side outstanding byte
// count must never exceed the budget, and the byte-throttle counter must
// move. The budget — not the message count — is the binding limit here.
func testByteBudgetBoundedOnWire(t *testing.T, kind Kind) {
	t.Helper()
	const (
		payload = 64
		count   = 40
	)
	// Size the budget at exactly three encoded entries so catch-up needs
	// many windows.
	probe := types.Entry{Index: 1 << 20, Term: 1 << 20, Kind: types.KindNormal,
		PID: types.ProposalID{Proposer: "n1", Seq: 1 << 20}, Data: make([]byte, payload)}
	budget := 3 * types.EntryWireSize(probe)
	c, err := NewCluster(Options{
		Kind:               kind,
		Nodes:              fiveNodes(),
		Seed:               41,
		MaxInflightAppends: 100, // deliberately slack: bytes must bind first
		MaxInflightBytes:   budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	const lagger = types.NodeID("n5")
	c.Crash(lagger)
	p, err := c.StartProposer(ProposerOptions{Node: "n1", MaxProposals: count, PayloadSize: payload})
	if err != nil {
		t.Fatal(err)
	}
	if !c.RunUntil(func() bool { return p.Completed >= count }, c.Sched.Now()+120*time.Second) {
		t.Fatalf("only %d/%d proposals resolved", p.Completed, count)
	}
	c.RunFor(2 * time.Second)

	// Tap the wire: per-message encoded entry bytes to the lagger.
	maxMsgBytes := 0
	c.Net.OnDeliver = func(env types.Envelope) {
		m, ok := env.Msg.(types.AppendEntries)
		if !ok || env.To != lagger {
			return
		}
		size := 0
		for i := range m.Entries {
			size += types.EntryWireSize(m.Entries[i])
		}
		if size > maxMsgBytes {
			maxMsgBytes = size
		}
	}
	if err := c.Restart(lagger); err != nil {
		t.Fatal(err)
	}
	maxInflightSeen := 0
	converged := c.RunUntil(func() bool {
		h, ok := c.Leader()
		if !ok {
			return false
		}
		if tr := h.Machine().Progress(); tr != nil {
			if pr := tr.Get(lagger); pr != nil && pr.BytesInFlight() > maxInflightSeen {
				maxInflightSeen = pr.BytesInFlight()
			}
		}
		return c.Host(lagger).Machine().CommitIndex() >= h.Machine().CommitIndex()
	}, c.Sched.Now()+120*time.Second)
	if !converged {
		t.Fatalf("lagger did not converge (commit %d)", c.Host(lagger).Machine().CommitIndex())
	}
	if maxMsgBytes == 0 {
		t.Fatal("no entries observed on the wire; scenario broken")
	}
	if maxMsgBytes > budget {
		t.Fatalf("an AppendEntries carried %d encoded bytes, budget is %d", maxMsgBytes, budget)
	}
	if maxInflightSeen > budget {
		t.Fatalf("leader had %d bytes outstanding, budget is %d", maxInflightSeen, budget)
	}
	var throttled uint64
	for _, h := range c.Hosts() {
		throttled += h.Machine().Metrics()[replica.CounterBytesThrottled]
	}
	if throttled == 0 {
		t.Fatal("byte budget never throttled a batch; scenario broken")
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestFastRaftByteBudgetBoundedOnWire(t *testing.T) {
	testByteBudgetBoundedOnWire(t, KindFastRaft)
}

func TestRaftByteBudgetBoundedOnWire(t *testing.T) {
	testByteBudgetBoundedOnWire(t, KindRaft)
}

// testSnapshotStreamResumesAcrossLeaderChange is the acceptance scenario
// for stream continuation: a chunked InstallSnapshot transfer is cut by
// crashing the leader mid-stream (under loss and duplication), and the
// successor must finish the install without re-sending the chunks the
// follower already acknowledged — no chunk from the new leader may carry
// an offset below the follower's position at the crash, and the
// resumption counter must move.
func testSnapshotStreamResumesAcrossLeaderChange(t *testing.T, kind Kind, seed int64) {
	t.Helper()
	const (
		threshold = 20
		chunkCap  = 4
	)
	c, err := NewCluster(Options{
		Kind:               kind,
		Nodes:              fiveNodes(),
		Seed:               seed,
		SnapshotThreshold:  threshold,
		MaxSnapshotChunk:   chunkCap,
		MaxInflightAppends: 1, // one chunk per ack round trip: a long stream
		LossProb:           0.10,
		DupProb:            0.05,
		// Keep silent-leave detection from reconfiguring around the churn.
		MemberTimeoutRounds: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(20 * time.Second); !ok {
		t.Fatal("no leader")
	}
	const lagger = types.NodeID("n5")
	c.Crash(lagger)
	// Continuation requires the successor to hold the same snapshot. A node
	// compacts at whatever its commit index is when it crosses the
	// threshold; the leader commits entry by entry as votes arrive and the
	// followers learn of it with the next heartbeat, so the proposals are
	// spaced for every follower to see each commit index on its own.
	bulk, err := c.StartProposer(ProposerOptions{Node: "n1", MaxProposals: 3 * threshold, ThinkTime: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !c.RunUntil(func() bool { return bulk.Completed >= 3*threshold }, c.Sched.Now()+600*time.Second) {
		t.Fatalf("bulk proposals: only %d/%d resolved", bulk.Completed, 3*threshold)
	}
	c.RunFor(3 * time.Second)
	boundary := minAliveBoundary(t, c, lagger)
	if boundary == 0 {
		t.Fatal("no alive node compacted")
	}
	for id, h := range c.Hosts() {
		if id == lagger || !h.Alive() {
			continue
		}
		if b := h.Machine().SnapshotIndex(); b != boundary {
			t.Fatalf("node %s compacted at %d, others at %d; scenario broken", id, b, boundary)
		}
	}

	// Tap: follower ack offsets, and every chunk send with its sender.
	var (
		maxAck      uint64
		crashed     bool
		oldLeader   types.NodeID
		ackAtCrash  uint64
		violation   *types.InstallSnapshot
		newChunks   int
		installDone bool
	)
	c.Net.OnDeliver = func(env types.Envelope) {
		switch m := env.Msg.(type) {
		case types.InstallSnapshotReply:
			if env.From == lagger {
				if m.Offset > maxAck {
					maxAck = m.Offset
				}
				if m.LastIndex >= boundary {
					installDone = true
				}
			}
		case types.InstallSnapshot:
			if env.To != lagger || m.Boundary != boundary {
				return
			}
			if crashed && env.From != oldLeader {
				newChunks++
				if m.Offset < ackAtCrash && violation == nil {
					v := m
					violation = &v
				}
			}
		}
	}
	if err := c.Restart(lagger); err != nil {
		t.Fatal(err)
	}
	// Let the stream reach mid-offset (at least two acked chunks), then
	// kill the leader.
	if !c.RunUntil(func() bool { return maxAck >= 2*chunkCap || installDone }, c.Sched.Now()+120*time.Second) {
		t.Fatal("stream never reached mid-offset")
	}
	if installDone {
		t.Fatal("install completed before the leader crash; stream too short for the scenario")
	}
	h, ok := c.Leader()
	if !ok {
		t.Fatal("no leader to crash")
	}
	oldLeader = h.ID()
	ackAtCrash = maxAck
	crashed = true
	c.Crash(oldLeader)

	converged := c.RunUntil(func() bool {
		l, ok := c.Leader()
		return ok && l.ID() != oldLeader &&
			c.Host(lagger).Machine().CommitIndex() >= boundary
	}, c.Sched.Now()+300*time.Second)
	if !converged {
		t.Fatalf("lagger did not converge after the leader change (commit %d, boundary %d)",
			c.Host(lagger).Machine().CommitIndex(), boundary)
	}
	if newChunks == 0 {
		t.Fatal("new leader sent no chunks; scenario broken")
	}
	if violation != nil {
		t.Fatalf("new leader re-sent acked chunk at offset %d (follower had %d at crash)",
			violation.Offset, ackAtCrash)
	}
	var resumed uint64
	for id, h := range c.Hosts() {
		if id == oldLeader || !h.Alive() {
			continue
		}
		resumed += h.Machine().Metrics()[replica.CounterStreamsResumed]
	}
	if resumed == 0 {
		t.Fatal("no stream resumption counted on the successor")
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestFastRaftSnapshotStreamResumesAcrossLeaderChange(t *testing.T) {
	testSnapshotStreamResumesAcrossLeaderChange(t, KindFastRaft, 7)
}

func TestRaftSnapshotStreamResumesAcrossLeaderChange(t *testing.T) {
	testSnapshotStreamResumesAcrossLeaderChange(t, KindRaft, 7)
}

// TestAdaptiveResendTimeoutTracksLatency pins the EWMA retransmission
// timer against injected simnet latency: on a fast network the per-peer
// timeout shrinks from the static default down to the heartbeat-interval
// clamp; on a slow network it grows with the observed round trips, bounded
// by the election timeout.
func TestAdaptiveResendTimeoutTracksLatency(t *testing.T) {
	const hb = 100 * time.Millisecond
	run := func(rtt time.Duration) time.Duration {
		topo := simnet.NewTopology()
		topo.IntraRTT = rtt
		c, err := NewCluster(Options{
			Kind:              KindRaft,
			Nodes:             []types.NodeID{"n1", "n2", "n3"},
			Seed:              5,
			Topology:          topo,
			HeartbeatInterval: hb,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := c.WaitForLeader(20 * time.Second); !ok {
			t.Fatal("no leader")
		}
		if _, err := c.RunProposals("n1", 12, c.Sched.Now()+120*time.Second); err != nil {
			t.Fatal(err)
		}
		c.RunFor(time.Second)
		h, ok := c.Leader()
		if !ok {
			t.Fatal("leader lost")
		}
		tr := h.Machine().Progress()
		if tr == nil {
			t.Fatal("leader has no tracker")
		}
		for _, peer := range h.Machine().Config().Others(h.ID()) {
			if pr := tr.Get(peer); pr != nil && pr.RTT() > 0 {
				return tr.ResendAfter(peer)
			}
		}
		t.Fatal("no peer accumulated round-trip samples")
		return 0
	}
	fast := run(2 * time.Millisecond)
	slow := run(120 * time.Millisecond)
	if fast != hb {
		t.Fatalf("fast-network RTO = %v, want shrunk to the heartbeat clamp %v", fast, hb)
	}
	if slow <= fast {
		t.Fatalf("slow-network RTO %v not above fast-network RTO %v", slow, fast)
	}
	if max := 3 * hb; slow > max {
		t.Fatalf("slow-network RTO %v exceeds the election-timeout clamp %v", slow, max)
	}
}
