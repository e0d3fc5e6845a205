package raft

import (
	"math/rand"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/types"
)

func newTestNode(t *testing.T, id types.NodeID, members ...types.NodeID) *Node {
	t.Helper()
	n, err := New(Config{
		ID:        id,
		Bootstrap: types.NewConfig(members...),
		Storage:   storage.NewMemory(),
		Rand:      rand.New(rand.NewSource(int64(len(id)) + 3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func electLeader(t *testing.T, n *Node, granters ...types.NodeID) {
	t.Helper()
	n.Tick(time.Hour)
	n.DrainOutbox(nil)
	for _, g := range granters {
		n.Step(time.Hour, types.Envelope{From: g, To: n.ID(), Layer: types.LayerLocal,
			Msg: types.RequestVoteResp{Term: n.Term(), Granted: true}})
	}
	if n.Role() != types.RoleLeader {
		t.Fatalf("not leader after grants (role %v)", n.Role())
	}
	n.DrainOutbox(nil)
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{ID: "a", Storage: storage.NewMemory()}); err == nil {
		t.Fatal("missing Rand accepted")
	}
	cfg := Config{ID: "a", Storage: storage.NewMemory(), Rand: rand.New(rand.NewSource(1)),
		ElectionTimeoutMin: time.Second, ElectionTimeoutMax: time.Second}
	if _, err := New(cfg); err == nil {
		t.Fatal("degenerate election window accepted")
	}
}

func TestElectionTimeoutStartsCampaign(t *testing.T) {
	n := newTestNode(t, "n1", "n1", "n2", "n3")
	n.Tick(time.Hour)
	if n.Role() != types.RoleCandidate {
		t.Fatalf("role = %v", n.Role())
	}
	out := n.DrainOutbox(nil)
	rv := 0
	for _, env := range out {
		if _, ok := env.Msg.(types.RequestVote); ok {
			rv++
		}
	}
	if rv != 2 {
		t.Fatalf("sent %d RequestVotes, want 2", rv)
	}
	if n.Term() != 1 {
		t.Fatalf("term = %d", n.Term())
	}
}

func TestVoteGrantRules(t *testing.T) {
	n := newTestNode(t, "n2", "n1", "n2", "n3")
	// Grant to an up-to-date candidate.
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.RequestVote{Term: 1, CandidateID: "n1"}})
	out := n.DrainOutbox(nil)
	if len(out) != 1 || !out[0].Msg.(types.RequestVoteResp).Granted {
		t.Fatalf("vote not granted: %v", out)
	}
	// A second candidate in the same term is refused (single vote).
	n.Step(time.Second, types.Envelope{From: "n3", To: "n2", Layer: types.LayerLocal,
		Msg: types.RequestVote{Term: 1, CandidateID: "n3"}})
	out = n.DrainOutbox(nil)
	if len(out) != 1 || out[0].Msg.(types.RequestVoteResp).Granted {
		t.Fatalf("second vote granted in same term: %v", out)
	}
}

func TestVoteRefusedForStaleLog(t *testing.T) {
	n := newTestNode(t, "n2", "n1", "n2", "n3")
	// Give n2 a log entry at term 2.
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 2, LeaderID: "n1", Entries: []types.Entry{
			{Index: 1, Term: 2, Kind: types.KindNoop, Approval: types.ApprovedLeader},
		}}})
	n.DrainOutbox(nil)
	// A candidate with an empty log must be refused.
	n.Step(time.Second, types.Envelope{From: "n3", To: "n2", Layer: types.LayerLocal,
		Msg: types.RequestVote{Term: 3, CandidateID: "n3", LastLogIndex: 0, LastLogTerm: 0}})
	out := n.DrainOutbox(nil)
	if len(out) != 1 || out[0].Msg.(types.RequestVoteResp).Granted {
		t.Fatalf("stale candidate granted: %v", out)
	}
}

func TestLeaderAppendsAndCommits(t *testing.T) {
	n := newTestNode(t, "n1", "n1", "n2", "n3")
	electLeader(t, n, "n2", "n3")
	pid := n.Propose(time.Hour, []byte("x"))
	if pid.Proposer != "n1" {
		t.Fatalf("pid = %v", pid)
	}
	// Tick dispatches AppendEntries with the no-op and the entry.
	n.Tick(n.NextDeadline())
	out := n.DrainOutbox(nil)
	var ae types.AppendEntries
	found := false
	for _, env := range out {
		if m, ok := env.Msg.(types.AppendEntries); ok {
			ae = m
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no AppendEntries in %v", out)
	}
	if len(ae.Entries) == 0 {
		t.Fatal("AppendEntries empty")
	}
	// The ack that completes the quorum commits inside Step, with no tick,
	// and the proposer resolution surfaces; nothing is dispatched.
	n.Step(time.Hour, types.Envelope{From: "n2", To: "n1", Layer: types.LayerLocal,
		Msg: types.AppendEntriesResp{Term: n.Term(), Success: true,
			MatchIndex: n.LastIndex()}})
	if n.CommitIndex() != n.LastIndex() {
		t.Fatalf("commit = %d, last = %d", n.CommitIndex(), n.LastIndex())
	}
	res := n.DrainResolved(nil)
	if len(res) != 1 || res[0].PID != pid {
		t.Fatalf("resolved = %v", res)
	}
	if out := n.DrainOutbox(nil); len(out) != 0 {
		t.Fatalf("commit on arrival dispatched %v", out)
	}
}

// TestSingleMemberCommitsAtTick: the leader's own append is the quorum, but
// a proposal is not an arrival; with no ack ever to arrive, the entry
// commits at the next heartbeat.
func TestSingleMemberCommitsAtTick(t *testing.T) {
	n := newTestNode(t, "n1", "n1")
	n.Tick(time.Hour)
	if n.Role() != types.RoleLeader {
		t.Fatalf("role = %v", n.Role())
	}
	pid := n.Propose(time.Hour, []byte("x"))
	if n.CommitIndex() != n.LastIndex()-1 {
		t.Fatalf("after Propose: commit = %d, last = %d", n.CommitIndex(), n.LastIndex())
	}
	n.Tick(n.NextDeadline())
	if n.CommitIndex() != n.LastIndex() {
		t.Fatalf("after the tick: commit = %d, last = %d", n.CommitIndex(), n.LastIndex())
	}
	if res := n.DrainResolved(nil); len(res) != 1 || res[0].PID != pid {
		t.Fatalf("resolved = %v", res)
	}
}

func TestFollowerAppendConsistencyCheck(t *testing.T) {
	n := newTestNode(t, "n2", "n1", "n2", "n3")
	// AE with a prev the follower doesn't have fails.
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 1, LeaderID: "n1", PrevLogIndex: 5, PrevLogTerm: 1}})
	out := n.DrainOutbox(nil)
	if len(out) != 1 || out[0].Msg.(types.AppendEntriesResp).Success {
		t.Fatalf("inconsistent AE accepted: %v", out)
	}
	// From scratch it succeeds.
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 1, LeaderID: "n1", Entries: []types.Entry{
			{Index: 1, Term: 1, Kind: types.KindNoop, Approval: types.ApprovedLeader},
		}, LeaderCommit: 1}})
	out = n.DrainOutbox(nil)
	resp := out[0].Msg.(types.AppendEntriesResp)
	if !resp.Success || resp.MatchIndex != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	if n.CommitIndex() != 1 {
		t.Fatalf("commit = %d", n.CommitIndex())
	}
}

func TestFollowerTruncatesConflicts(t *testing.T) {
	n := newTestNode(t, "n2", "n1", "n2", "n3")
	// Old leader's entries at term 1.
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 1, LeaderID: "n1", Entries: []types.Entry{
			{Index: 1, Term: 1, Kind: types.KindNoop, Approval: types.ApprovedLeader},
			{Index: 2, Term: 1, Kind: types.KindNormal, Approval: types.ApprovedLeader,
				PID: types.ProposalID{Proposer: "n1", Seq: 1}, Data: []byte("old")},
		}}})
	n.DrainOutbox(nil)
	// New leader at term 2 conflicts at index 2.
	n.Step(time.Second, types.Envelope{From: "n3", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 2, LeaderID: "n3", PrevLogIndex: 1, PrevLogTerm: 1,
			Entries: []types.Entry{
				{Index: 2, Term: 2, Kind: types.KindNormal, Approval: types.ApprovedLeader,
					PID: types.ProposalID{Proposer: "n3", Seq: 1}, Data: []byte("new")},
			}}})
	n.DrainOutbox(nil)
	e, ok := n.log.Get(2)
	if !ok || string(e.Data) != "new" || e.Term != 2 {
		t.Fatalf("conflict not resolved: %v", e)
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
		suffix = append(suffix, types.Entry{Index: i, Term: 1, Kind: types.KindNormal,
			Approval: types.ApprovedLeader,
			PID:      types.ProposalID{Proposer: "n1", Seq: uint64(i)}, Data: []byte("old")})
	}
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 1, LeaderID: "n1", Entries: suffix, LeaderCommit: 1}})
	if n.CommitIndex() != 1 || n.log.LastIndex() != 3 {
		t.Fatalf("setup: commit=%d last=%d, want 1 and 3", n.CommitIndex(), n.log.LastIndex())
	}
	n.Step(2*time.Second, types.Envelope{From: "n3", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 2, LeaderID: "n3", PrevLogIndex: 1, PrevLogTerm: 1, LeaderCommit: 3}})
	if n.CommitIndex() != 1 {
		t.Fatalf("commitIndex = %d: committed a deposed leader's suffix the heartbeat did not cover", n.CommitIndex())
	}
}

func TestProposalForwardingToLeader(t *testing.T) {
	n := newTestNode(t, "n2", "n1", "n2", "n3")
	// Learn the leader.
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 1, LeaderID: "n1"}})
	n.DrainOutbox(nil)
	n.Propose(time.Second, []byte("fwd"))
	out := n.DrainOutbox(nil)
	if len(out) != 1 || out[0].To != "n1" {
		t.Fatalf("proposal not forwarded: %v", out)
	}
	if _, ok := out[0].Msg.(types.ClientPropose); !ok {
		t.Fatalf("wrong message type %T", out[0].Msg)
	}
}

func TestLeaderDedupsReproposals(t *testing.T) {
	n := newTestNode(t, "n1", "n1", "n2", "n3")
	electLeader(t, n, "n2", "n3")
	e := types.Entry{Kind: types.KindNormal,
		PID: types.ProposalID{Proposer: "n2", Seq: 1}, Data: []byte("once")}
	n.Step(time.Hour, types.Envelope{From: "n2", To: "n1", Layer: types.LayerLocal,
		Msg: types.ClientPropose{Entry: e}})
	last := n.LastIndex()
	n.Step(time.Hour, types.Envelope{From: "n2", To: "n1", Layer: types.LayerLocal,
		Msg: types.ClientPropose{Entry: e}})
	if n.LastIndex() != last {
		t.Fatalf("duplicate appended: last %d -> %d", last, n.LastIndex())
	}
}

func TestLeaderStepsDownOnHigherTerm(t *testing.T) {
	n := newTestNode(t, "n1", "n1", "n2", "n3")
	electLeader(t, n, "n2", "n3")
	n.Step(time.Hour, types.Envelope{From: "n2", To: "n1", Layer: types.LayerLocal,
		Msg: types.AppendEntriesResp{Term: n.Term() + 5}})
	if n.Role() != types.RoleFollower {
		t.Fatalf("role = %v", n.Role())
	}
}

func TestRestartRecoversPersistentState(t *testing.T) {
	store := storage.NewMemory()
	cfg := Config{ID: "n1", Bootstrap: types.NewConfig("n1"), Storage: store,
		Rand: rand.New(rand.NewSource(1))}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Tick(time.Second) // self-elect
	n.Propose(2*time.Second, []byte("persisted"))
	n.Tick(n.NextDeadline())
	term, last := n.Term(), n.LastIndex()

	cfg.Rand = rand.New(rand.NewSource(2))
	n2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n2.Term() != term || n2.LastIndex() != last {
		t.Fatalf("recovered term=%d last=%d, want %d/%d", n2.Term(), n2.LastIndex(), term, last)
	}
}
