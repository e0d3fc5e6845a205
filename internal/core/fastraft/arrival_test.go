package fastraft

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/types"
)

// The commit-on-arrival contract: evaluation runs at the end of every entry
// point that can change its inputs, the tick is only the fast track's
// timeout. Three members throughout: a fast quorum is all three, a classic
// quorum two.

var threePeers = []types.NodeID{"n1", "n2", "n3"}

// threeLeader returns n1 leading {n1,n2,n3} with its election no-op
// committed, so the fast track is open.
func threeLeader(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	electLeader(t, n, "n2")
	ackLeaderLog(t, n, "n2")
	return n
}

func stepFrom(n *Node, from types.NodeID, msg types.Message) {
	n.Step(time.Hour, types.Envelope{From: from, To: n.ID(), Layer: types.LayerLocal, Msg: msg})
}

func ack(n *Node, from types.NodeID, match types.Index) {
	stepFrom(n, from, types.AppendEntriesResp{Term: n.Term(), Success: true, MatchIndex: match})
}

func TestThirdOfThreeVotesCommitsInsideStep(t *testing.T) {
	n := threeLeader(t, testConfig("n1", threePeers...))
	e := proposal("n3", 1)
	k := n.LastLeaderIndex() + 1
	stepFrom(n, "n3", types.ProposeEntry{Index: k, Entry: e}) // the leader's own vote
	stepFrom(n, "n2", vote(k, e, n.Term(), 0))
	if n.LastLeaderIndex() >= k || n.CommitIndex() >= k {
		t.Fatalf("decided on two of three votes between ticks (head=%d commit=%d)", n.LastLeaderIndex(), n.CommitIndex())
	}
	stepFrom(n, "n3", vote(k, e, n.Term(), 0))
	if n.CommitIndex() != k {
		t.Fatalf("third vote did not commit inside Step: commit=%d, want %d", n.CommitIndex(), k)
	}
	committed := n.DrainCommitted(nil)
	if len(committed) != 1 || !committed[0].SameProposal(e) {
		t.Fatalf("committed = %v", committed)
	}
	// The proposer is told at once; no AppendEntries goes out before the tick.
	var notified bool
	for _, env := range n.DrainOutbox(nil) {
		switch m := env.Msg.(type) {
		case types.CommitNotify:
			notified = notified || (env.To == "n3" && m.PID == e.PID && m.Index == k)
		case types.AppendEntries:
			t.Fatalf("dispatch between ticks: %+v", m)
		}
	}
	if !notified {
		t.Fatal("proposer not notified on commit")
	}
	m := n.Metrics()
	if m["fastraft.commits_fast"] != 1 || m["fastraft.decisions_on_arrival"] != 1 || m["fastraft.decisions_on_tick"] != 0 {
		t.Fatalf("counters = fast %d, on arrival %d, on tick %d", m["fastraft.commits_fast"],
			m["fastraft.decisions_on_arrival"], m["fastraft.decisions_on_tick"])
	}
}

func TestTwoOfThreeVotesWaitForTickThenRideClassicTrack(t *testing.T) {
	n := threeLeader(t, testConfig("n1", threePeers...))
	e := proposal("n3", 1)
	k := n.LastLeaderIndex() + 1
	stepFrom(n, "n3", types.ProposeEntry{Index: k, Entry: e})
	stepFrom(n, "n2", vote(k, e, n.Term(), 0)) // n3's own vote is lost
	if n.LastLeaderIndex() >= k {
		t.Fatal("decided between ticks without a fast quorum")
	}
	n.Tick(n.NextDeadline()) // the fast track's timeout
	if got, ok := n.Entry(k); !ok || got.Approval != types.ApprovedLeader || !got.SameProposal(e) {
		t.Fatalf("not decided at the tick: %v %v", got, ok)
	}
	if n.CommitIndex() >= k {
		t.Fatal("committed at the tick without a fast quorum")
	}
	var dispatched bool
	for _, env := range n.DrainOutbox(nil) {
		if ae, ok := env.Msg.(types.AppendEntries); ok && len(ae.Entries) > 0 {
			dispatched = true
		}
	}
	if !dispatched {
		t.Fatal("tick did not dispatch the decided entry")
	}
	// The completing ack commits it, inside Step.
	ack(n, "n2", k)
	if n.CommitIndex() != k {
		t.Fatalf("completing ack did not commit inside Step: commit=%d, want %d", n.CommitIndex(), k)
	}
	m := n.Metrics()
	if m["fastraft.commits_fast"] != 0 || m["fastraft.decisions_on_tick"] != 1 {
		t.Fatalf("counters = fast %d, on tick %d", m["fastraft.commits_fast"], m["fastraft.decisions_on_tick"])
	}
}

// TestQueuedVotesConsumedWhenPredecessorCommits covers both ways votes can
// queue up behind an undecided or uncommitted index: they are consumed in
// the same evaluation that commits the predecessor, on either track.
func TestQueuedVotesConsumedWhenPredecessorCommits(t *testing.T) {
	t.Run("fast", func(t *testing.T) {
		n := threeLeader(t, testConfig("n1", threePeers...))
		k := n.LastLeaderIndex() + 1
		e1, e2 := proposal("n3", 1), proposal("n3", 2)
		for i, e := range []types.Entry{e2, e1} { // k+1 gathers its quorum first
			idx := k + 1 - types.Index(i)
			stepFrom(n, "n3", types.ProposeEntry{Index: idx, Entry: e})
			stepFrom(n, "n2", vote(idx, e, n.Term(), 0))
			if n.CommitIndex() >= k {
				t.Fatalf("committed %d out of order", n.CommitIndex())
			}
			stepFrom(n, "n3", vote(idx, e, n.Term(), 0))
		}
		if n.CommitIndex() != k+1 {
			t.Fatalf("commit=%d after k's third vote, want k and k+1 (%d)", n.CommitIndex(), k+1)
		}
		if got := n.Metrics()["fastraft.commits_fast"]; got != 2 {
			t.Fatalf("commits_fast = %d, want 2", got)
		}
	})
	t.Run("classic", func(t *testing.T) {
		n := threeLeader(t, testConfig("n1", threePeers...))
		k := n.LastLeaderIndex() + 1
		e1, e2 := proposal("n3", 1), proposal("n3", 2)
		stepFrom(n, "n3", types.ProposeEntry{Index: k, Entry: e1})
		stepFrom(n, "n2", vote(k, e1, n.Term(), 0))
		n.Tick(n.NextDeadline()) // k misses its fast quorum: classic track
		n.DrainOutbox(nil)
		stepFrom(n, "n3", types.ProposeEntry{Index: k + 1, Entry: e2})
		stepFrom(n, "n2", vote(k+1, e2, n.Term(), 0))
		stepFrom(n, "n3", vote(k+1, e2, n.Term(), 0))
		if n.LastLeaderIndex() != k {
			t.Fatalf("k+1 decided while k is uncommitted (head=%d)", n.LastLeaderIndex())
		}
		ack(n, "n2", k)
		if n.CommitIndex() != k+1 {
			t.Fatalf("commit=%d after k's completing ack, want k and k+1 (%d)", n.CommitIndex(), k+1)
		}
		m := n.Metrics()
		if m["fastraft.commits_fast"] != 1 || m["fastraft.decisions_on_arrival"] != 1 {
			t.Fatalf("k+1 did not re-enter the fast track: fast %d, on arrival %d",
				m["fastraft.commits_fast"], m["fastraft.decisions_on_arrival"])
		}
	})
}

// depthStorage records how deep the call stack is whenever the node
// persists an entry.
type depthStorage struct {
	*storage.Memory
	max int
}

func (d *depthStorage) AppendEntry(e types.Entry) error {
	var pcs [1024]uintptr
	if depth := runtime.Callers(0, pcs[:]); depth > d.max {
		d.max = depth
	}
	return d.Memory.AppendEntry(e)
}

// TestCommitAdmittingQueuedProposalDoesNotRecurse drives the chain the
// evaluation step must survive: a commit resolves a local proposal, which
// admits the next queued one, whose self-vote is a quorum of one, and so on
// for two thousand proposals inside one tick. The running decide loop picks
// each one up; were evaluation entered from inside the commit instead, the
// stack would grow with every link of the chain.
func TestCommitAdmittingQueuedProposalDoesNotRecurse(t *testing.T) {
	const queued = 2000
	store := &depthStorage{Memory: storage.NewMemory()}
	cfg := testConfig("n1", "n1")
	cfg.Storage = store
	cfg.MaxInflightProposals = 1
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Proposed before there is a leader: the first is broadcast (to nobody)
	// and the rest queue behind the window of one.
	for i := 0; i < queued; i++ {
		n.Propose(time.Millisecond, []byte(fmt.Sprintf("q%d", i)))
	}
	if n.QueuedProposals() != queued-1 {
		t.Fatalf("queued = %d, want %d", n.QueuedProposals(), queued-1)
	}
	// Self-election recovers and commits the first; the second is admitted
	// from inside that commit but loses its slot to the new term's no-op, so
	// it waits for its retry; the heartbeat after the retry then pulls the
	// whole queue through in one evaluation.
	n.Tick(time.Second)
	if n.Role() != types.RoleLeader || n.PendingProposals() != queued-1 {
		t.Fatalf("after election: role=%v pending=%d", n.Role(), n.PendingProposals())
	}
	n.Tick(time.Minute) // far past the proposal timeout: the retry re-votes
	if n.PendingProposals() != queued-1 {
		t.Fatalf("pending = %d after the retry, want %d (a retry does not evaluate)", n.PendingProposals(), queued-1)
	}
	n.Tick(n.NextDeadline())
	if n.PendingProposals() != 0 {
		t.Fatalf("%d proposals still pending after the retry", n.PendingProposals())
	}
	var got int
	for _, e := range n.DrainCommitted(nil) {
		if e.Kind != types.KindNormal {
			continue
		}
		if want := fmt.Sprintf("q%d", got); string(e.Data) != want {
			t.Fatalf("commit %d = %q, want %q (submission order)", got, e.Data, want)
		}
		got++
	}
	if got != queued {
		t.Fatalf("committed %d, want %d", got, queued)
	}
	if store.max > 100 {
		t.Fatalf("stack %d frames deep while persisting: evaluation recursed through the commit", store.max)
	}
}

func TestGroupCommitDecidesNothingBeforeSyncDone(t *testing.T) {
	store := storage.NewGroupedMemory(storage.NewMemory())
	n, err := New(Config{
		ID:        "n1",
		Bootstrap: types.NewConfig(threePeers...),
		Storage:   store,
		Rand:      rand.New(rand.NewSource(3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	sync := func() {
		t.Helper()
		if err := store.Sync(); err != nil {
			t.Fatal(err)
		}
		n.SyncDone(time.Hour, store.DurableLSN())
	}
	n.Tick(time.Hour)
	sync() // the candidate's own vote counts once its term is on disk
	stepFrom(n, "n2", types.RequestVoteResp{Term: n.Term(), Granted: true})
	if n.Role() != types.RoleLeader {
		t.Fatalf("role = %v", n.Role())
	}
	sync()
	ack(n, "n2", n.LastLeaderIndex())
	if n.CommitIndex() != n.LastLeaderIndex() {
		t.Fatalf("setup: no-op not committed (commit=%d head=%d)", n.CommitIndex(), n.LastLeaderIndex())
	}

	e := proposal("n3", 1)
	k := n.LastLeaderIndex() + 1
	stepFrom(n, "n3", types.ProposeEntry{Index: k, Entry: e}) // inserted, not yet durable
	stepFrom(n, "n2", vote(k, e, n.Term(), 0))
	stepFrom(n, "n3", vote(k, e, n.Term(), 0))
	if n.LastLeaderIndex() >= k {
		t.Fatal("decided before the leader's own insert was durable")
	}
	sync() // releases the leader's vote: the third of three
	if n.CommitIndex() != k {
		t.Fatalf("SyncDone did not commit: commit=%d, want %d", n.CommitIndex(), k)
	}
}
