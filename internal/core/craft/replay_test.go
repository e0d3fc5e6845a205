package craft

import (
	"math/rand"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/types"
)

func newReplayNode(t *testing.T) *Node {
	t.Helper()
	n, err := New(Config{
		ID:               "s1",
		Cluster:          "c1",
		ClusterBootstrap: types.NewConfig("s1", "s2", "s3"),
		GlobalBootstrap:  types.NewConfig("c1", "c2"),
		Storage:          storage.NewMemory(),
		Rand:             rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func deltaEntry(era, seq uint64, commit types.Index, entries ...types.Entry) types.Entry {
	d := types.GlobalStateDelta{
		Era: era, Seq: seq, Term: types.Term(era), CommitIndex: commit,
		Entries: entries,
	}
	return types.Entry{Kind: types.KindGlobalState, Data: types.EncodeGlobalStateDelta(d)}
}

func gEntry(idx types.Index, payload string) types.Entry {
	return types.Entry{
		Index: idx, Term: 1, Kind: types.KindBatch, Approval: types.ApprovedLeader,
		PID:  types.ProposalID{Proposer: "c1", Seq: uint64(idx)},
		Data: types.EncodeBatch(types.Batch{Cluster: "c1", Seq: uint64(idx), Items: []types.BatchItem{{Data: []byte(payload)}}}),
	}
}

func TestDeltaReplayInOrder(t *testing.T) {
	n := newReplayNode(t)
	n.onDeltaCommitted(deltaEntry(1, 1, 0, gEntry(1, "a")))
	n.onDeltaCommitted(deltaEntry(1, 2, 1, gEntry(2, "b")))
	if n.GlobalCommitIndex() != 1 {
		t.Fatalf("gCommit = %d", n.GlobalCommitIndex())
	}
	if e, ok := n.GlobalLogEntry(2); !ok || e.Index != 2 {
		t.Fatalf("entry 2 = %v ok=%v", e, ok)
	}
	committed := n.DrainGlobalCommitted(nil)
	if len(committed) != 1 || committed[0].Index != 1 {
		t.Fatalf("emitted = %v", committed)
	}
}

func TestDeltaReplayBuffersOutOfOrder(t *testing.T) {
	n := newReplayNode(t)
	// Seq 2 commits locally before seq 1 (slot contention reordered them).
	n.onDeltaCommitted(deltaEntry(1, 2, 2, gEntry(2, "b")))
	if n.GlobalCommitIndex() != 0 {
		t.Fatal("applied out of order")
	}
	n.onDeltaCommitted(deltaEntry(1, 1, 1, gEntry(1, "a")))
	if n.GlobalCommitIndex() != 2 {
		t.Fatalf("gCommit = %d after both applied", n.GlobalCommitIndex())
	}
	// Emission order must follow global index order.
	committed := n.DrainGlobalCommitted(nil)
	if len(committed) != 2 || committed[0].Index != 1 || committed[1].Index != 2 {
		t.Fatalf("emitted = %v", committed)
	}
}

func TestDeltaReplayIgnoresStaleEra(t *testing.T) {
	n := newReplayNode(t)
	n.onDeltaCommitted(deltaEntry(2, 1, 1, gEntry(1, "new-era")))
	// A straggler from era 1 commits afterwards: its changes were never
	// externalized, so replay must ignore it.
	stale := gEntry(1, "old-era")
	stale.PID = types.ProposalID{Proposer: "c9", Seq: 99}
	n.onDeltaCommitted(deltaEntry(1, 1, 1, stale))
	e, ok := n.GlobalLogEntry(1)
	if !ok {
		t.Fatal("entry 1 missing")
	}
	if e.PID.Proposer == "c9" {
		t.Fatal("stale-era delta overwrote newer state")
	}
}

func TestDeltaReplayEraSwitchMidStream(t *testing.T) {
	n := newReplayNode(t)
	n.onDeltaCommitted(deltaEntry(1, 1, 0, gEntry(1, "a")))
	// New era starts at seq 1 again; an out-of-order (era 2, seq 2) comes
	// first and must be buffered until (era 2, seq 1).
	n.onDeltaCommitted(deltaEntry(2, 2, 2, gEntry(2, "b2")))
	if n.GlobalCommitIndex() != 0 {
		t.Fatal("era-2 seq-2 applied before seq-1")
	}
	n.onDeltaCommitted(deltaEntry(2, 1, 1, gEntry(1, "a2")))
	if n.GlobalCommitIndex() != 2 {
		t.Fatalf("gCommit = %d", n.GlobalCommitIndex())
	}
}

func TestDeltaReplayDuplicateSeqIgnored(t *testing.T) {
	n := newReplayNode(t)
	n.onDeltaCommitted(deltaEntry(1, 1, 1, gEntry(1, "a")))
	before, _ := n.GlobalLogEntry(1)
	dup := gEntry(1, "dup")
	dup.PID = types.ProposalID{Proposer: "cX", Seq: 1}
	n.onDeltaCommitted(deltaEntry(1, 1, 1, dup))
	after, _ := n.GlobalLogEntry(1)
	if before.PID != after.PID {
		t.Fatal("duplicate seq replayed")
	}
}

func TestBatchTrackingAcrossReplay(t *testing.T) {
	n := newReplayNode(t)
	// Two of this cluster's batches appear in the replayed global log.
	n.onDeltaCommitted(deltaEntry(1, 1, 0, gEntry(1, "b1"), gEntry(2, "b2")))
	if n.batchedItems != 2 {
		t.Fatalf("batchedItems = %d", n.batchedItems)
	}
	if n.nextBatchSeq != 3 {
		t.Fatalf("nextBatchSeq = %d", n.nextBatchSeq)
	}
	// A foreign cluster's batch does not affect our accounting.
	foreign := types.Entry{
		Index: 3, Term: 1, Kind: types.KindBatch, Approval: types.ApprovedLeader,
		PID:  types.ProposalID{Proposer: "c2", Seq: 1},
		Data: types.EncodeBatch(types.Batch{Cluster: "c2", Seq: 1, Items: []types.BatchItem{{Data: []byte("x")}}}),
	}
	n.onDeltaCommitted(deltaEntry(1, 2, 0, foreign))
	if n.batchedItems != 2 {
		t.Fatalf("foreign batch counted: %d", n.batchedItems)
	}
}

func TestStartGlobalRestoresReplayedState(t *testing.T) {
	n := newReplayNode(t)
	n.onDeltaCommitted(deltaEntry(3, 1, 1, gEntry(1, "a"), gEntry(2, "b")))
	n.gTerm, n.gVote = 7, "c2"
	n.startGlobal(time.Second)
	g := n.GlobalNode()
	if g == nil {
		t.Fatal("no global node")
	}
	term, vote := g.HardState()
	if term != 7 || vote != "c2" {
		t.Fatalf("hard state = %d/%s", term, vote)
	}
	if g.LastIndex() != 2 {
		t.Fatalf("global log last = %d", g.LastIndex())
	}
	// Batch 2 is beyond gCommit=1: it must be re-proposed under its
	// original pid; batch 1 (committed) must not.
	if g.PendingProposals() != 1 {
		t.Fatalf("pending re-proposals = %d, want 1", g.PendingProposals())
	}
}

func TestConfigValidationCraft(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{ID: "a", Cluster: "c",
		Storage: storage.NewMemory()}); err == nil {
		t.Fatal("missing Rand accepted")
	}
}

// TestSuccessorStartsGlobalAfterReplayCatchesUp pins the hand-over rule: a
// site that wins the local election may hold the predecessor's last deltas
// uncommitted — the predecessor commits (and externalizes) them the moment
// the deciding ack arrives, its followers hear of it a heartbeat later. The
// successor's global instance must be built from a replay that includes
// them, i.e. not before its own no-op has committed; built at election time
// it would lack global index 1 here and fill it with its own entry.
func TestSuccessorStartsGlobalAfterReplayCatchesUp(t *testing.T) {
	n := newReplayNode(t)
	local := func(from types.NodeID, msg types.Message) types.Envelope {
		return types.Envelope{From: from, To: "s1", Layer: types.LayerLocal, Msg: msg}
	}
	// The predecessor s2 replicated a delta carrying global entry 1 and its
	// commit; s1 holds it, not knowing that it committed.
	delta := deltaEntry(1, 1, 1, gEntry(1, "a"))
	delta.Index, delta.Term, delta.Approval = 1, 1, types.ApprovedLeader
	delta.PID = types.ProposalID{Proposer: "s2", Seq: 1}
	n.Step(time.Second, local("s2", types.AppendEntries{
		Term: 1, LeaderID: "s2", Entries: []types.Entry{delta},
	}))
	if n.CommitIndex() != 0 || n.GlobalCommitIndex() != 0 {
		t.Fatalf("setup: delta already committed (local %d, global %d)", n.CommitIndex(), n.GlobalCommitIndex())
	}

	// s2 dies; s1 wins the election.
	n.Tick(time.Hour)
	n.Step(time.Hour, local("s3", types.RequestVoteResp{Term: n.Term(), Granted: true}))
	if n.Role() != types.RoleLeader {
		t.Fatalf("role = %v, want leader", n.Role())
	}
	if n.IsGlobalMember() {
		t.Fatal("global instance started before the predecessor's deltas replayed")
	}

	// The ack that commits s1's no-op commits the delta before it.
	n.Step(time.Hour, local("s3", types.AppendEntriesResp{
		Term: n.Term(), Success: true, MatchIndex: n.LastIndex(),
	}))
	if n.GlobalCommitIndex() != 1 {
		t.Fatalf("replayed gCommit = %d, want 1", n.GlobalCommitIndex())
	}
	g := n.GlobalNode()
	if g == nil {
		t.Fatal("global instance not started once the replay caught up")
	}
	if e, ok := g.Entry(1); !ok || e.PID != gEntry(1, "a").PID {
		t.Fatalf("successor's global log holds %v at 1, want the predecessor's batch", e)
	}
}
