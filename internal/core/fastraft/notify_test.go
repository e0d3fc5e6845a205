package fastraft

import (
	"math/rand"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/types"
)

// The commit-on-notification contract: a proposer site that is not the
// leader commits index k when the CommitNotify for its own proposal at k
// lands, provided it has committed k-1 and holds that proposal at k.
// Everything else is left to the AppendEntries path. n2 proposes throughout;
// n1 leads {n1,n2,n3}.

// noops returns leader-approved no-ops at lo..hi stamped with term.
func noops(lo, hi types.Index, term types.Term) []types.Entry {
	var es []types.Entry
	for i := lo; i <= hi; i++ {
		es = append(es, types.Entry{Index: i, Term: term, Kind: types.KindNoop, Approval: types.ApprovedLeader})
	}
	return es
}

// notifyFollower returns n2 following leader (in term) with indexes
// 1..committed leader-approved and committed.
func notifyFollower(t *testing.T, cfg Config, leader types.NodeID, term types.Term, committed types.Index) *Node {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepFrom(n, leader, types.AppendEntries{Term: term, LeaderID: leader,
		Entries: noops(1, committed, term), LeaderCommit: committed})
	if n.CommitIndex() != committed {
		t.Fatalf("setup: commit=%d, want %d", n.CommitIndex(), committed)
	}
	n.DrainOutbox(nil)
	n.DrainCommitted(nil)
	return n
}

// proposeAt proposes data on n and returns the proposal's ID and the index it
// was broadcast (and self-inserted) at.
func proposeAt(t *testing.T, n *Node, data string) (types.ProposalID, types.Index) {
	t.Helper()
	pid := n.Propose(time.Hour, []byte(data))
	for _, env := range n.DrainOutbox(nil) {
		if m, ok := env.Msg.(types.ProposeEntry); ok && m.Entry.PID == pid {
			return pid, m.Index
		}
	}
	t.Fatalf("proposal %v was not broadcast", pid)
	return pid, 0
}

func notify(n *Node, pid types.ProposalID, idx types.Index, term types.Term) {
	stepFrom(n, "n1", types.CommitNotify{PID: pid, Index: idx, Term: term})
}

func committedData(n *Node) []string {
	var out []string
	for _, e := range n.DrainCommitted(nil) {
		out = append(out, string(e.Data))
	}
	return out
}

func TestNotificationCommitsAtCommitIndexPlusOne(t *testing.T) {
	n := notifyFollower(t, testConfig("n2", threePeers...), "n1", 1, 3)
	pid, k := proposeAt(t, n, "a")
	if k != 4 {
		t.Fatalf("proposed at %d, want 4", k)
	}
	notify(n, pid, k, 1)
	if n.CommitIndex() != k {
		t.Fatalf("commit=%d after the notification, want %d", n.CommitIndex(), k)
	}
	if got := committedData(n); len(got) != 1 || got[0] != "a" {
		t.Fatalf("committed = %q", got)
	}
	if res := n.DrainResolved(nil); len(res) != 1 || res[0].PID != pid || res[0].Index != k {
		t.Fatalf("resolved = %v", res)
	}
	if e, _ := n.Entry(k); e.Approval != types.ApprovedLeader || e.Term != 1 {
		t.Fatalf("slot %d = %v, want leader-approved at term 1", k, e)
	}
	if got := n.Metrics()["fastraft.commits_notified"]; got != 1 {
		t.Fatalf("commits_notified = %d, want 1", got)
	}
	// The proposer's next vote reports the commit index it now has.
	stepFrom(n, "n3", types.ProposeEntry{Index: k + 1, Entry: proposal("n3", 1)})
	for _, env := range n.DrainOutbox(nil) {
		if v, ok := env.Msg.(types.VoteEntry); ok && v.CommitIndex != k {
			t.Fatalf("vote reports commit %d, want %d", v.CommitIndex, k)
		}
	}

	// A duplicate changes nothing.
	notify(n, pid, k, 1)
	if got := committedData(n); len(got) != 0 || n.CommitIndex() != k {
		t.Fatalf("duplicate notification committed %q (commit=%d)", got, n.CommitIndex())
	}
	// The AppendEntries that would have committed it finds it applied.
	e, _ := n.Entry(k)
	stepFrom(n, "n1", types.AppendEntries{Term: 1, LeaderID: "n1", PrevLogIndex: k - 1, PrevLogTerm: 1,
		Entries: []types.Entry{e}, LeaderCommit: k})
	if got := committedData(n); len(got) != 0 || n.CommitIndex() != k {
		t.Fatalf("AppendEntries re-committed %q (commit=%d)", got, n.CommitIndex())
	}
	out := n.DrainOutbox(nil)
	if resp := out[len(out)-1].Msg.(types.AppendEntriesResp); !resp.Success || resp.MatchIndex != k {
		t.Fatalf("resp = %+v", resp)
	}
	m := n.Metrics()
	if m["fastraft.commits_notified"] != 1 || m["fastraft.notify_ahead"] != 0 || m["fastraft.notify_mismatch"] != 0 {
		t.Fatalf("counters = notified %d, ahead %d, mismatch %d", m["fastraft.commits_notified"],
			m["fastraft.notify_ahead"], m["fastraft.notify_mismatch"])
	}
}

func TestNotificationChainCommitsEachOnArrival(t *testing.T) {
	n := notifyFollower(t, testConfig("n2", threePeers...), "n1", 1, 3)
	var pids []types.ProposalID
	for i, data := range []string{"a", "b", "c"} {
		pid, k := proposeAt(t, n, data)
		if want := types.Index(4 + i); k != want {
			t.Fatalf("%q proposed at %d, want %d", data, k, want)
		}
		pids = append(pids, pid)
	}
	for i, pid := range pids {
		k := types.Index(4 + i)
		notify(n, pid, k, 1)
		if n.CommitIndex() != k {
			t.Fatalf("commit=%d after notification %d, want %d", n.CommitIndex(), i, k)
		}
	}
	if got := committedData(n); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("committed = %q, want a b c", got)
	}
	if got := n.Metrics()["fastraft.commits_notified"]; got != 3 {
		t.Fatalf("commits_notified = %d, want 3", got)
	}
}

// TestNotificationIgnoredForCommit walks every case the rule leaves to the
// AppendEntries path: the proposal resolves, the commit index does not move.
func TestNotificationIgnoredForCommit(t *testing.T) {
	cases := []struct {
		name string
		// run sets the case up on a follower committed through 3 and delivers
		// the notification; it returns the proposal that must have resolved
		// and the commit index the setup itself reached.
		run     func(t *testing.T, n *Node) (types.ProposalID, types.Index)
		counter string // the counter that must read 1 ("" = none)
	}{
		{"ahead of commitIndex+1", func(t *testing.T, n *Node) (types.ProposalID, types.Index) {
			proposeAt(t, n, "a")
			pid, k := proposeAt(t, n, "b")
			notify(n, pid, k, 1) // k = 5, 4 not yet committed
			return pid, 3
		}, "fastraft.notify_ahead"},
		{"slot holds another proposal", func(t *testing.T, n *Node) (types.ProposalID, types.Index) {
			stepFrom(n, "n3", types.ProposeEntry{Index: 4, Entry: proposal("n3", 1)})
			pid, k := proposeAt(t, n, "a")
			if k != 5 {
				t.Fatalf("proposed at %d, want 5 (4 is taken)", k)
			}
			notify(n, pid, 4, 1) // the leader decided it at 4 regardless
			return pid, 3
		}, "fastraft.notify_mismatch"},
		{"slot is empty", func(t *testing.T, n *Node) (types.ProposalID, types.Index) {
			stepFrom(n, "n3", types.ProposeEntry{Index: 4, Entry: proposal("n3", 1)})
			pid, _ := proposeAt(t, n, "a") // at 5
			stepFrom(n, "n1", types.AppendEntries{Term: 1, LeaderID: "n1", PrevLogIndex: 3, PrevLogTerm: 1,
				Entries: noops(4, 5, 1), LeaderCommit: 5})
			notify(n, pid, 6, 1) // re-sequenced past both
			return pid, 5
		}, "fastraft.notify_mismatch"},
		{"slot leader-approved under a different term", func(t *testing.T, n *Node) (types.ProposalID, types.Index) {
			pid, k := proposeAt(t, n, "a")
			e, _ := n.Entry(k)
			stepFrom(n, "n1", types.AppendEntries{Term: 1, LeaderID: "n1", PrevLogIndex: 3, PrevLogTerm: 1,
				Entries: []types.Entry{e}, LeaderCommit: 3})
			if got, _ := n.Entry(k); got.Approval != types.ApprovedLeader || got.Term != 1 {
				t.Fatalf("setup: slot = %v", got)
			}
			notify(n, pid, k, 2)
			return pid, 3
		}, "fastraft.notify_mismatch"},
		{"same PID from an earlier lifetime", func(t *testing.T, n *Node) (types.ProposalID, types.Index) {
			old := types.Entry{Kind: types.KindNormal, Data: []byte("old"),
				PID: types.ProposalID{Proposer: "n2", Seq: 1}}
			stepFrom(n, "n2", types.ProposeEntry{Index: 4, Entry: old})
			pid, k := proposeAt(t, n, "new") // the reset counter reuses n2/1
			if pid != old.PID || k != 4 {
				t.Fatalf("setup: proposed %v at %d", pid, k)
			}
			notify(n, pid, 4, 1)
			return pid, 3
		}, "fastraft.notify_mismatch"},
		{"Term 0", func(t *testing.T, n *Node) (types.ProposalID, types.Index) {
			pid, k := proposeAt(t, n, "a")
			notify(n, pid, k, 0)
			return pid, 3
		}, ""},
		{"a term this site has not reached", func(t *testing.T, n *Node) (types.ProposalID, types.Index) {
			pid, k := proposeAt(t, n, "a")
			notify(n, pid, k, 2)
			return pid, 3
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := notifyFollower(t, testConfig("n2", threePeers...), "n1", 1, 3)
			pid, commit := tc.run(t, n)
			if n.CommitIndex() != commit {
				t.Fatalf("commit=%d, want %d (left to AppendEntries)", n.CommitIndex(), commit)
			}
			var resolved bool
			for _, r := range n.DrainResolved(nil) {
				resolved = resolved || r.PID == pid
			}
			if !resolved {
				t.Fatal("the notification did not resolve the proposal")
			}
			m := n.Metrics()
			if m["fastraft.commits_notified"] != 0 {
				t.Fatalf("commits_notified = %d, want 0", m["fastraft.commits_notified"])
			}
			for _, name := range []string{"fastraft.notify_ahead", "fastraft.notify_mismatch"} {
				want := uint64(0)
				if name == tc.counter {
					want = 1
				}
				if m[name] != want {
					t.Fatalf("%s = %d, want %d", name, m[name], want)
				}
			}
		})
	}
}

// TestNotificationAfterLeaderApprovalAtThatTerm: AppendEntries brought the
// entry first but not its commit; the notification commits it, leaving the
// slot as it is.
func TestNotificationAfterLeaderApprovalAtThatTerm(t *testing.T) {
	n := notifyFollower(t, testConfig("n2", threePeers...), "n1", 1, 3)
	pid, k := proposeAt(t, n, "a")
	e, _ := n.Entry(k)
	stepFrom(n, "n1", types.AppendEntries{Term: 1, LeaderID: "n1", PrevLogIndex: 3, PrevLogTerm: 1,
		Entries: []types.Entry{e}, LeaderCommit: 3})
	notify(n, pid, k, 1)
	if n.CommitIndex() != k || n.Metrics()["fastraft.commits_notified"] != 1 {
		t.Fatalf("commit=%d notified=%d, want %d and 1", n.CommitIndex(), n.Metrics()["fastraft.commits_notified"], k)
	}
}

// TestLateNotificationFromDeposedLeaderIsNoOp: n1 committed the proposal in
// term 1 and was deposed; n3 leads term 2 and has brought n2's prefix to term
// 2. n1's notification, arriving now, must not put a term-1 entry above a
// term-2 one; n3's AppendEntries commits the entry as it always did.
func TestLateNotificationFromDeposedLeaderIsNoOp(t *testing.T) {
	n := notifyFollower(t, testConfig("n2", threePeers...), "n3", 2, 3)
	pid, k := proposeAt(t, n, "a")
	notify(n, pid, k, 1)
	if n.CommitIndex() != 3 {
		t.Fatalf("commit=%d: a term-1 notification committed above a term-2 prefix", n.CommitIndex())
	}
	if got, _ := n.Entry(k); got.Approval != types.ApprovedSelf {
		t.Fatalf("slot = %v, want still self-approved", got)
	}
	e, _ := n.Entry(k)
	e.Term, e.Approval = 2, types.ApprovedLeader
	stepFrom(n, "n3", types.AppendEntries{Term: 2, LeaderID: "n3", PrevLogIndex: 3, PrevLogTerm: 2,
		Entries: []types.Entry{e}, LeaderCommit: k})
	if got := committedData(n); n.CommitIndex() != k || len(got) != 1 || got[0] != "a" {
		t.Fatalf("AppendEntries did not commit it: commit=%d committed=%q", n.CommitIndex(), got)
	}
}

// TestNotificationOnLeaderIsIgnored: n2 proposed as a follower and has since
// been elected; it commits by its own rules, not on the old leader's word.
func TestNotificationOnLeaderIsIgnored(t *testing.T) {
	n := notifyFollower(t, testConfig("n2", threePeers...), "n1", 1, 3)
	pid, k := proposeAt(t, n, "a")
	n.Tick(2 * time.Hour) // far past the election timeout
	stepFrom(n, "n3", types.RequestVoteResp{Term: n.Term(), Granted: true})
	if n.Role() != types.RoleLeader {
		t.Fatalf("setup: role = %v", n.Role())
	}
	commit := n.CommitIndex()
	notify(n, pid, k, 1)
	if n.CommitIndex() != commit || n.Metrics()["fastraft.commits_notified"] != 0 {
		t.Fatalf("leader committed on a notification: commit %d -> %d", commit, n.CommitIndex())
	}
}

// TestNotifiedCommitWaitsForPromoteRecord: with group commit the commit index
// moves on arrival, but the entry is delivered only once the record that
// leader-approves the slot is on disk.
func TestNotifiedCommitWaitsForPromoteRecord(t *testing.T) {
	store := storage.NewGroupedMemory(storage.NewMemory())
	n := notifyFollower(t, Config{
		ID:        "n2",
		Bootstrap: types.NewConfig(threePeers...),
		Storage:   store,
		Rand:      rand.New(rand.NewSource(3)),
	}, "n1", 1, 3)
	sync := func() {
		t.Helper()
		if err := store.Sync(); err != nil {
			t.Fatal(err)
		}
		n.SyncDone(time.Hour, store.DurableLSN())
	}
	sync()
	n.DrainCommitted(nil)
	pid := n.Propose(time.Hour, []byte("a"))
	sync() // the self-insert is durable; the broadcast leaves
	n.DrainOutbox(nil)
	notify(n, pid, 4, 1)
	if n.CommitIndex() != 4 {
		t.Fatalf("commit=%d, want 4", n.CommitIndex())
	}
	if got := committedData(n); len(got) != 0 {
		t.Fatalf("delivered %q before the promote record was durable", got)
	}
	if res := n.DrainResolved(nil); len(res) != 0 {
		t.Fatalf("resolved %v before the promote record was durable", res)
	}
	sync()
	if got := committedData(n); len(got) != 1 || got[0] != "a" {
		t.Fatalf("delivered %q after the sync, want a", got)
	}
	if res := n.DrainResolved(nil); len(res) != 1 || res[0].PID != pid {
		t.Fatalf("resolved = %v", res)
	}
}
