package fastraft

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/types"
)

func testConfig(id types.NodeID, members ...types.NodeID) Config {
	return Config{
		ID:        id,
		Bootstrap: types.NewConfig(members...),
		Storage:   storage.NewMemory(),
		Rand:      rand.New(rand.NewSource(int64(len(id)) + 7)),
	}
}

func newTestNode(t *testing.T, id types.NodeID, members ...types.NodeID) *Node {
	t.Helper()
	n, err := New(testConfig(id, members...))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// electLeader drives n into leadership by expiring its election timer and
// granting votes from enough peers.
func electLeader(t *testing.T, n *Node, granters ...types.NodeID) {
	t.Helper()
	n.Tick(time.Hour) // far past any election timeout
	if n.Role() != types.RoleCandidate && n.Role() != types.RoleLeader {
		t.Fatalf("role after timeout = %v", n.Role())
	}
	n.DrainOutbox(nil)
	for _, g := range granters {
		n.Step(time.Hour, types.Envelope{
			From: g, To: n.ID(), Layer: types.LayerLocal,
			Msg: types.RequestVoteResp{Term: n.Term(), Granted: true},
		})
	}
	if n.Role() != types.RoleLeader {
		t.Fatalf("not leader after %d grants (role %v)", len(granters), n.Role())
	}
	n.DrainOutbox(nil)
	n.DrainChangedEntries(nil)
}

func vote(idx types.Index, e types.Entry, term types.Term, commit types.Index) types.VoteEntry {
	return types.VoteEntry{Term: term, Index: idx, Entry: e, CommitIndex: commit}
}

// ackLeaderLog feeds successful AppendEntries responses covering the
// leader's current prefix from the given followers, which commits pending
// classic-track entries (e.g. the election no-op) as the completing ack
// arrives — no tick involved.
func ackLeaderLog(t *testing.T, n *Node, followers ...types.NodeID) {
	t.Helper()
	top := n.LastLeaderIndex()
	for _, f := range followers {
		n.Step(time.Hour, types.Envelope{From: f, To: n.ID(), Layer: types.LayerLocal,
			Msg: types.AppendEntriesResp{Term: n.Term(), Success: true, MatchIndex: top}})
	}
	if n.CommitIndex() < top {
		t.Fatalf("prefix not committed: commit=%d top=%d", n.CommitIndex(), top)
	}
	n.DrainOutbox(nil)
	n.DrainCommitted(nil)
}

func proposal(p string, seq uint64) types.Entry {
	return types.Entry{
		Kind: types.KindNormal,
		PID:  types.ProposalID{Proposer: types.NodeID(p), Seq: seq},
		Data: []byte(fmt.Sprintf("%s-%d", p, seq)),
	}
}

func TestSingleNodeBecomesLeaderAndCommits(t *testing.T) {
	n := newTestNode(t, "n1", "n1")
	n.Tick(time.Second)
	if n.Role() != types.RoleLeader {
		t.Fatalf("single node should self-elect, role=%v", n.Role())
	}
	// A single member is its own fast quorum, but its own proposal is not an
	// arrival: with nothing to arrive, the entry commits at the next
	// heartbeat.
	before := n.CommitIndex()
	n.Propose(2*time.Second, []byte("solo"))
	if n.CommitIndex() != before {
		t.Fatalf("commitIndex = %d after Propose, want %d (evaluation is not run by Propose)", n.CommitIndex(), before)
	}
	n.Tick(n.NextDeadline())
	if n.CommitIndex() != before+1 {
		t.Fatalf("commitIndex = %d after the tick, want %d", n.CommitIndex(), before+1)
	}
	found := false
	for _, e := range n.DrainCommitted(nil) {
		if string(e.Data) == "solo" {
			found = true
		}
	}
	if !found {
		t.Fatal("proposed entry not committed")
	}
}

// TestPaperQuorumExample reproduces the example from Section III-B: five
// sites, four insert entry e (a fast quorum), one inserts f. Whatever
// classic quorum of votes reaches the leader, e must have the majority in
// it, so the leader always decides e.
func TestPaperQuorumExample(t *testing.T) {
	peers := []types.NodeID{"n1", "n2", "n3", "n4", "n5"}
	e := proposal("n5", 1)
	f := proposal("n4", 1)
	// Voters: n2..n5 voted e; n1 (the would-be leader, as a site) voted f.
	// The leader receives votes from every 2-subset of {n2..n5}; together
	// with its own insert of f that is a classic quorum of 3 with e
	// holding 2 votes — e must win every time.
	subsets := [][]types.NodeID{
		{"n2", "n3"}, {"n2", "n4"}, {"n2", "n5"},
		{"n3", "n4"}, {"n3", "n5"}, {"n4", "n5"},
	}
	for _, sub := range subsets {
		n := newTestNode(t, "n1", peers...)
		electLeader(t, n, "n2", "n3")
		// Leader (as a site) received f's broadcast first.
		k := n.LastLeaderIndex() + 1
		n.Step(time.Hour, types.Envelope{From: "n4", To: "n1", Layer: types.LayerLocal,
			Msg: types.ProposeEntry{Index: k, Entry: f}})
		for _, voter := range sub {
			n.Step(time.Hour, types.Envelope{From: voter, To: "n1", Layer: types.LayerLocal,
				Msg: vote(k, e, n.Term(), 0)})
		}
		n.Tick(n.NextDeadline())
		got, ok := n.Entry(k)
		if !ok {
			t.Fatalf("subset %v: nothing decided at %d", sub, k)
		}
		if !got.SameProposal(e) {
			t.Fatalf("subset %v: decided %v, want e=%v", sub, got.PID, e.PID)
		}
		if got.Approval != types.ApprovedLeader {
			t.Fatalf("subset %v: decision not leader-approved", sub)
		}
	}
}

func TestFastTrackCommitNeedsFastQuorum(t *testing.T) {
	peers := []types.NodeID{"n1", "n2", "n3", "n4", "n5"}
	e := proposal("n5", 1)
	// Case 1: fast quorum (4 voters including the leader) -> the vote that
	// completes it commits the entry, inside Step.
	n := newTestNode(t, "n1", peers...)
	electLeader(t, n, "n2", "n3")
	ackLeaderLog(t, n, "n2", "n3")
	k := n.LastLeaderIndex() + 1
	n.Step(time.Hour, types.Envelope{From: "n5", To: "n1", Layer: types.LayerLocal,
		Msg: types.ProposeEntry{Index: k, Entry: e}}) // leader inserts + self-votes
	for _, voter := range []types.NodeID{"n2", "n3", "n4"} {
		if n.CommitIndex() >= k {
			t.Fatalf("committed before the fast quorum was complete (next voter %s)", voter)
		}
		n.Step(time.Hour, types.Envelope{From: voter, To: "n1", Layer: types.LayerLocal,
			Msg: vote(k, e, n.Term(), 0)})
	}
	if n.CommitIndex() < k {
		t.Fatalf("fast quorum present but no fast commit (commit=%d, k=%d)", n.CommitIndex(), k)
	}

	// Case 2: only a classic quorum -> not even decided until the tick (the
	// fast track's timeout), and then NOT committed until AppendEntries
	// responses arrive (classic track).
	n2 := newTestNode(t, "n1", peers...)
	electLeader(t, n2, "n2", "n3")
	ackLeaderLog(t, n2, "n2", "n3")
	k2 := n2.LastLeaderIndex() + 1
	n2.Step(time.Hour, types.Envelope{From: "n5", To: "n1", Layer: types.LayerLocal,
		Msg: types.ProposeEntry{Index: k2, Entry: e}})
	for _, voter := range []types.NodeID{"n2", "n3"} {
		n2.Step(time.Hour, types.Envelope{From: voter, To: "n1", Layer: types.LayerLocal,
			Msg: vote(k2, e, n2.Term(), 0)})
	}
	if n2.LastLeaderIndex() >= k2 {
		t.Fatal("decided between ticks on a classic quorum of votes")
	}
	n2.Tick(n2.NextDeadline())
	if got, ok := n2.Entry(k2); !ok || !got.SameProposal(e) || got.Approval != types.ApprovedLeader {
		t.Fatalf("entry not decided at the tick: %v %v", got, ok)
	}
	if n2.CommitIndex() >= k2 {
		t.Fatal("committed without a fast quorum or classic replication")
	}
	// The ack that completes a classic quorum of matchIndex commits it,
	// inside Step.
	n2.Step(time.Hour, types.Envelope{From: "n2", To: "n1", Layer: types.LayerLocal,
		Msg: types.AppendEntriesResp{Term: n2.Term(), Success: true, MatchIndex: k2}})
	if n2.CommitIndex() >= k2 {
		t.Fatal("committed on one ack: leader + n2 is not a quorum of five")
	}
	n2.Step(time.Hour, types.Envelope{From: "n3", To: "n1", Layer: types.LayerLocal,
		Msg: types.AppendEntriesResp{Term: n2.Term(), Success: true, MatchIndex: k2}})
	if n2.CommitIndex() < k2 {
		t.Fatalf("classic track did not commit on the completing ack (commit=%d, k=%d)", n2.CommitIndex(), k2)
	}
	m := n2.Metrics()
	if m["fastraft.decisions_on_tick"] == 0 || m["fastraft.commits_classic"] == 0 {
		t.Fatalf("classic-track entry not counted as such: %v", m)
	}
}

func TestDisableFastTrackForcesClassic(t *testing.T) {
	peers := []types.NodeID{"n1", "n2", "n3", "n4", "n5"}
	cfg := testConfig("n1", peers...)
	cfg.DisableFastTrack = true
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	electLeader(t, n, "n2", "n3")
	e := proposal("n5", 1)
	k := n.LastLeaderIndex() + 1
	n.Step(time.Hour, types.Envelope{From: "n5", To: "n1", Layer: types.LayerLocal,
		Msg: types.ProposeEntry{Index: k, Entry: e}})
	for _, voter := range []types.NodeID{"n2", "n3", "n4", "n5"} {
		n.Step(time.Hour, types.Envelope{From: voter, To: "n1", Layer: types.LayerLocal,
			Msg: vote(k, e, n.Term(), 0)})
	}
	if n.LastLeaderIndex() >= k {
		t.Fatal("fast track disabled but entry decided between ticks")
	}
	n.Tick(n.NextDeadline())
	if got, ok := n.Entry(k); !ok || got.Approval != types.ApprovedLeader {
		t.Fatal("entry not decided at the tick")
	}
	if n.CommitIndex() >= k {
		t.Fatal("fast track disabled but entry fast-committed")
	}
	ackLeaderLog(t, n, "n2", "n3")
	if m := n.Metrics(); m["fastraft.commits_fast"] != 0 || m["fastraft.decisions_on_arrival"] != 0 {
		t.Fatalf("fast track disabled but used: %v", m)
	}
}

func TestFollowerInsertAndVote(t *testing.T) {
	peers := []types.NodeID{"n1", "n2", "n3"}
	n := newTestNode(t, "n2", peers...)
	// Learn the leader via a heartbeat.
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 1, LeaderID: "n1"}})
	n.DrainOutbox(nil)
	e := proposal("n3", 1)
	n.Step(time.Second, types.Envelope{From: "n3", To: "n2", Layer: types.LayerLocal,
		Msg: types.ProposeEntry{Index: 1, Entry: e}})
	out := n.DrainOutbox(nil)
	if len(out) != 1 {
		t.Fatalf("outbox = %v", out)
	}
	v, ok := out[0].Msg.(types.VoteEntry)
	if !ok || out[0].To != "n1" {
		t.Fatalf("expected vote to leader, got %v", out[0])
	}
	if v.Index != 1 || !v.Entry.SameProposal(e) {
		t.Fatalf("vote = %+v", v)
	}
	got, _ := n.Entry(1)
	if got.Approval != types.ApprovedSelf {
		t.Fatalf("inserted entry = %v", got)
	}
	// A second proposal for the same slot must vote for the occupant.
	f := proposal("n1", 9)
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.ProposeEntry{Index: 1, Entry: f}})
	out = n.DrainOutbox(nil)
	if len(out) != 1 {
		t.Fatalf("outbox = %v", out)
	}
	v2 := out[0].Msg.(types.VoteEntry)
	if !v2.Entry.SameProposal(e) {
		t.Fatalf("re-vote should carry the occupant e, got %v", v2.Entry.PID)
	}
}

func TestElectionComparesOnlyLeaderApproved(t *testing.T) {
	peers := []types.NodeID{"n1", "n2", "n3"}
	n := newTestNode(t, "n2", peers...)
	// Self-approved entries at high indices must NOT make a voter reject a
	// candidate whose leader-approved log matches ours.
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.ProposeEntry{Index: 7, Entry: proposal("n1", 1)}})
	n.DrainOutbox(nil)
	n.Step(2*time.Second, types.Envelope{From: "n3", To: "n2", Layer: types.LayerLocal,
		Msg: types.RequestVote{Term: 5, CandidateID: "n3", LastLogIndex: 0, LastLogTerm: 0}})
	out := n.DrainOutbox(nil)
	if len(out) != 1 {
		t.Fatalf("outbox = %v", out)
	}
	resp := out[0].Msg.(types.RequestVoteResp)
	if !resp.Granted {
		t.Fatal("vote refused despite equal leader-approved logs")
	}
	// The granted vote must ship the self-approved entries for recovery.
	if len(resp.SelfApproved) != 1 || resp.SelfApproved[0].Index != 7 {
		t.Fatalf("self-approved entries = %v", resp.SelfApproved)
	}
}

func TestRecoveryRedecidesSelfApprovedEntries(t *testing.T) {
	peers := []types.NodeID{"n1", "n2", "n3", "n4", "n5"}
	n := newTestNode(t, "n1", peers...)
	e := proposal("n5", 1)
	// n1 itself holds e self-approved at index 1 (the old leader may have
	// fast-committed it before dying).
	n.Step(time.Second, types.Envelope{From: "n5", To: "n1", Layer: types.LayerLocal,
		Msg: types.ProposeEntry{Index: 1, Entry: e}})
	n.DrainOutbox(nil)
	// Election: n2 and n3 grant, shipping their self-approved copies of e.
	n.Tick(time.Hour)
	n.DrainOutbox(nil)
	selfCopy := e.Clone()
	selfCopy.Index = 1
	selfCopy.Approval = types.ApprovedSelf
	for _, g := range []types.NodeID{"n2", "n3"} {
		n.Step(time.Hour, types.Envelope{From: g, To: "n1", Layer: types.LayerLocal,
			Msg: types.RequestVoteResp{Term: n.Term(), Granted: true,
				SelfApproved: []types.Entry{selfCopy}}})
	}
	if n.Role() != types.RoleLeader {
		t.Fatalf("role = %v", n.Role())
	}
	got, ok := n.Entry(1)
	if !ok || !got.SameProposal(e) {
		t.Fatalf("recovery did not re-decide e at 1: %v %v", got, ok)
	}
	if got.Approval != types.ApprovedLeader || got.Term != n.Term() {
		t.Fatalf("recovered entry not re-stamped: %v", got)
	}
	// 3 recovery voters (n1, n2, n3) < fast quorum (4): not committed yet.
	if n.CommitIndex() >= 1 {
		t.Fatal("committed on recovery without a fast quorum")
	}
}

// TestRecoveryRecommitsViaClassicTrack drives the full paper scenario: the
// old leader fast-committed e (a fast quorum holds it self-approved), then
// died. The new leader gathers a classic quorum of self-approved entries —
// which cannot reach a fast quorum (elections stop at a majority) — so it
// re-decides e and re-commits it on the classic track.
func TestRecoveryRecommitsViaClassicTrack(t *testing.T) {
	peers := []types.NodeID{"n1", "n2", "n3", "n4", "n5"}
	n := newTestNode(t, "n1", peers...)
	e := proposal("n5", 1)
	n.Step(time.Second, types.Envelope{From: "n5", To: "n1", Layer: types.LayerLocal,
		Msg: types.ProposeEntry{Index: 1, Entry: e}})
	n.DrainOutbox(nil)
	n.Tick(time.Hour)
	n.DrainOutbox(nil)
	selfCopy := e.Clone()
	selfCopy.Index = 1
	selfCopy.Approval = types.ApprovedSelf
	for _, g := range []types.NodeID{"n2", "n3"} {
		n.Step(time.Hour, types.Envelope{From: g, To: "n1", Layer: types.LayerLocal,
			Msg: types.RequestVoteResp{Term: n.Term(), Granted: true,
				SelfApproved: []types.Entry{selfCopy}}})
	}
	if n.Role() != types.RoleLeader {
		t.Fatalf("role = %v", n.Role())
	}
	got, ok := n.Entry(1)
	if !ok || !got.SameProposal(e) {
		t.Fatalf("recovery did not re-decide e: %v ok=%v", got, ok)
	}
	// Classic-track replication re-commits it.
	n.DrainOutbox(nil)
	ackLeaderLog(t, n, "n2", "n3")
	if n.CommitIndex() < 1 {
		t.Fatalf("recovered entry never re-committed (commit=%d)", n.CommitIndex())
	}
}

func TestRecoveryFillsGapsWithNoops(t *testing.T) {
	peers := []types.NodeID{"n1", "n2", "n3"}
	n := newTestNode(t, "n1", peers...)
	n.Tick(time.Hour)
	n.DrainOutbox(nil)
	// A granter reports a self-approved entry at index 3 only: indices 1-2
	// must become no-ops so the log stays dense.
	far := proposal("n5", 1)
	far.Index = 3
	far.Approval = types.ApprovedSelf
	n.Step(time.Hour, types.Envelope{From: "n2", To: "n1", Layer: types.LayerLocal,
		Msg: types.RequestVoteResp{Term: n.Term(), Granted: true,
			SelfApproved: []types.Entry{far}}})
	if n.Role() != types.RoleLeader {
		t.Fatalf("role = %v", n.Role())
	}
	for i := types.Index(1); i <= 2; i++ {
		got, ok := n.Entry(i)
		if !ok || got.Kind != types.KindNoop {
			t.Fatalf("index %d = %v (ok=%v), want noop", i, got, ok)
		}
	}
	got, _ := n.Entry(3)
	if !got.SameProposal(far) {
		t.Fatalf("index 3 = %v, want recovered entry", got.PID)
	}
}

func TestFollowerOverwritesOnAppendEntriesWithoutTruncating(t *testing.T) {
	peers := []types.NodeID{"n1", "n2", "n3"}
	n := newTestNode(t, "n2", peers...)
	// Self-approved entries at 1 and 5.
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.ProposeEntry{Index: 1, Entry: proposal("n1", 1)}})
	n.Step(time.Second, types.Envelope{From: "n3", To: "n2", Layer: types.LayerLocal,
		Msg: types.ProposeEntry{Index: 5, Entry: proposal("n3", 1)}})
	n.DrainOutbox(nil)
	// Leader decides something else at 1.
	decided := proposal("n1", 7)
	decided.Index = 1
	decided.Term = 1
	decided.Approval = types.ApprovedLeader
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 1, LeaderID: "n1",
			Entries: []types.Entry{decided}, LeaderCommit: 1}})
	got, _ := n.Entry(1)
	if !got.SameProposal(decided) || got.Approval != types.ApprovedLeader {
		t.Fatalf("slot 1 = %v", got)
	}
	// The self-approved entry at 5 must survive (no truncation).
	if got5, ok := n.Entry(5); !ok || got5.Approval != types.ApprovedSelf {
		t.Fatalf("slot 5 = %v ok=%v (fast raft must not truncate)", got5, ok)
	}
	if n.CommitIndex() != 1 {
		t.Fatalf("commitIndex = %d", n.CommitIndex())
	}
}

func TestCommitPrefixRestrictedToLeaderApproved(t *testing.T) {
	peers := []types.NodeID{"n1", "n2", "n3"}
	n := newTestNode(t, "n2", peers...)
	// Self-approved entry at 1; the leader's commit index claims 3.
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.ProposeEntry{Index: 1, Entry: proposal("n1", 1)}})
	n.DrainOutbox(nil)
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 1, LeaderID: "n1", LeaderCommit: 3}})
	// Nothing leader-approved: nothing may commit (commit-prefix refinement).
	if n.CommitIndex() != 0 {
		t.Fatalf("commitIndex = %d over self-approved entries", n.CommitIndex())
	}
}

// TestFollowerCommitsOnlyWhatTheMessageVouchesFor: term 1 replicates 1..3 to
// n2 and commits 1; n3 then wins term 2 without them, commits its own 2..3
// and heartbeats n2 at PrevLogIndex 1 with LeaderCommit 3. The heartbeat
// vouches for n2's log through index 1 only: n2's 2..3 are the deposed
// leader's and must not commit.
func TestFollowerCommitsOnlyWhatTheMessageVouchesFor(t *testing.T) {
	n := newTestNode(t, "n2", "n1", "n2", "n3")
	var suffix []types.Entry
	for i := types.Index(1); i <= 3; i++ {
		e := proposal("n1", uint64(i))
		e.Index, e.Term, e.Approval = i, 1, types.ApprovedLeader
		suffix = append(suffix, e)
	}
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 1, LeaderID: "n1", Entries: suffix, LeaderCommit: 1}})
	if n.CommitIndex() != 1 || n.LastLeaderIndex() != 3 {
		t.Fatalf("setup: commit=%d head=%d, want 1 and 3", n.CommitIndex(), n.LastLeaderIndex())
	}
	n.Step(2*time.Second, types.Envelope{From: "n3", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 2, LeaderID: "n3", PrevLogIndex: 1, PrevLogTerm: 1, LeaderCommit: 3}})
	if n.CommitIndex() != 1 {
		t.Fatalf("commitIndex = %d: committed a deposed leader's suffix the heartbeat did not cover", n.CommitIndex())
	}
}

// TestFollowerDemotesDeposedSuffix: n2 holds term 1's entries 1..3; the
// term-2 leader replaces index 2 and commits it with n2. What followed the
// replaced entry is term 1's suffix, so n2's log now ends in term 2 at
// index 2 — also after a restart — and n2 refuses a term-3 candidate that
// holds only term 1's log (3, t1), which lacks the committed entry. Both
// modes of the core share the rule.
func TestFollowerDemotesDeposedSuffix(t *testing.T) {
	for _, classic := range []bool{false, true} {
		cfg := testConfig("n2", "n1", "n2", "n3")
		cfg.DisableFastTrack = classic
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var suffix []types.Entry
		for i := types.Index(1); i <= 3; i++ {
			e := proposal("n1", uint64(i))
			e.Index, e.Term, e.Approval = i, 1, types.ApprovedLeader
			suffix = append(suffix, e)
		}
		n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
			Msg: types.AppendEntries{Term: 1, LeaderID: "n1", Entries: suffix}})
		e := proposal("n3", 1)
		e.Index, e.Term, e.Approval = 2, 2, types.ApprovedLeader
		n.Step(2*time.Second, types.Envelope{From: "n3", To: "n2", Layer: types.LayerLocal,
			Msg: types.AppendEntries{Term: 2, LeaderID: "n3", PrevLogIndex: 1, PrevLogTerm: 1,
				Entries: []types.Entry{e}, LeaderCommit: 2}})
		n.DrainOutbox(nil)
		if n.CommitIndex() != 2 || n.LastLeaderIndex() != 2 {
			t.Fatalf("classic=%v: commit %d, leader prefix %d; want 2 and 2", classic, n.CommitIndex(), n.LastLeaderIndex())
		}
		cfg.Rand = rand.New(rand.NewSource(2))
		restarted, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if restarted.LastLeaderIndex() != 2 {
			t.Fatalf("classic=%v: restarted leader prefix %d, want 2", classic, restarted.LastLeaderIndex())
		}
		n.Step(time.Minute, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
			Msg: types.RequestVote{Term: 3, CandidateID: "n1", LastLogIndex: 3, LastLogTerm: 1}})
		for _, env := range n.DrainOutbox(nil) {
			if r, ok := env.Msg.(types.RequestVoteResp); ok && r.Granted {
				t.Fatalf("classic=%v: voted for a candidate missing committed index 2", classic)
			}
		}
	}
}

func TestStaleTermMessagesRejected(t *testing.T) {
	peers := []types.NodeID{"n1", "n2", "n3"}
	n := newTestNode(t, "n2", peers...)
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 5, LeaderID: "n1"}})
	n.DrainOutbox(nil)
	n.Step(time.Second, types.Envelope{From: "n3", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 3, LeaderID: "n3"}})
	out := n.DrainOutbox(nil)
	if len(out) != 1 {
		t.Fatalf("outbox = %v", out)
	}
	resp := out[0].Msg.(types.AppendEntriesResp)
	if resp.Success || resp.Term != 5 {
		t.Fatalf("stale AE response = %+v", resp)
	}
	if n.LeaderID() != "n1" {
		t.Fatalf("leader = %v", n.LeaderID())
	}
}

func TestMembershipFilterIgnoresNonMembers(t *testing.T) {
	peers := []types.NodeID{"n1", "n2", "n3"}
	n := newTestNode(t, "n2", peers...)
	n.Step(time.Second, types.Envelope{From: "intruder", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 99, LeaderID: "intruder"}})
	if n.Term() == 99 {
		t.Fatal("non-member message processed")
	}
	if len(n.DrainOutbox(nil)) != 0 {
		t.Fatal("responded to a non-member")
	}
}

func TestRestartRecoversFromStorage(t *testing.T) {
	store := storage.NewMemory()
	cfg := Config{
		ID:        "n1",
		Bootstrap: types.NewConfig("n1"),
		Storage:   store,
		Rand:      rand.New(rand.NewSource(1)),
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Tick(time.Second)
	n.Propose(2*time.Second, []byte("durable"))
	if n.CommitIndex() == 0 {
		t.Fatal("no commit before crash")
	}
	term := n.Term()

	// "Crash" and recover from the same storage.
	cfg.Rand = rand.New(rand.NewSource(2))
	n2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n2.Term() != term {
		t.Fatalf("term not recovered: %d vs %d", n2.Term(), term)
	}
	if n2.LastIndex() == 0 {
		t.Fatal("log not recovered")
	}
	// Commit index is volatile: it must be relearned, so it starts at 0.
	if n2.CommitIndex() != 0 {
		t.Fatalf("commitIndex persisted? %d", n2.CommitIndex())
	}
	// The restarted single-node group must recommit on re-election.
	n2.Tick(time.Hour)
	if n2.CommitIndex() == 0 {
		t.Fatal("restarted node cannot make progress")
	}
}

func TestProposalDedupAcrossReproposal(t *testing.T) {
	peers := []types.NodeID{"n1", "n2", "n3"}
	n := newTestNode(t, "n1", peers...)
	electLeader(t, n, "n2", "n3")
	ackLeaderLog(t, n, "n2", "n3")
	e := proposal("n3", 1)
	k := n.LastLeaderIndex() + 1
	// First broadcast arrives and is decided + committed via fast track.
	n.Step(time.Hour, types.Envelope{From: "n3", To: "n1", Layer: types.LayerLocal,
		Msg: types.ProposeEntry{Index: k, Entry: e}})
	for _, voter := range []types.NodeID{"n2", "n3"} {
		n.Step(time.Hour, types.Envelope{From: voter, To: "n1", Layer: types.LayerLocal,
			Msg: vote(k, e, n.Term(), 0)})
	}
	if n.CommitIndex() < k {
		t.Fatalf("setup: not committed (commit=%d k=%d)", n.CommitIndex(), k)
	}
	n.DrainOutbox(nil)
	// A duplicate broadcast (proposer timeout fired) must trigger a commit
	// notification, not a new insertion.
	n.Step(time.Hour, types.Envelope{From: "n3", To: "n1", Layer: types.LayerLocal,
		Msg: types.ProposeEntry{Index: k + 3, Entry: e}})
	out := n.DrainOutbox(nil)
	foundNotify := false
	for _, env := range out {
		if cn, ok := env.Msg.(types.CommitNotify); ok {
			if cn.PID == e.PID && cn.Index == k && env.To == "n3" {
				foundNotify = true
			}
		}
	}
	if !foundNotify {
		t.Fatalf("duplicate proposal not answered with CommitNotify: %v", out)
	}
	if n.Entry(k + 3); n.LastIndex() > k {
		if got, ok := n.Entry(k + 3); ok && got.SameProposal(e) {
			t.Fatal("duplicate inserted again")
		}
	}
}
