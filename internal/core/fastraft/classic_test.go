package fastraft

import (
	"math/rand"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/types"
)

// Classic Raft is this core with Config.DisableFastTrack set: proposals go
// to the leader as ClientPropose and commit on a classic quorum of acks.
// These tests pin that mode.

func classicConfig(id types.NodeID, members ...types.NodeID) Config {
	cfg := testConfig(id, members...)
	cfg.DisableFastTrack = true
	return cfg
}

func newClassicNode(t *testing.T, id types.NodeID, members ...types.NodeID) *Node {
	t.Helper()
	n, err := New(classicConfig(id, members...))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{DisableFastTrack: true}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{ID: "a", Storage: storage.NewMemory(), DisableFastTrack: true}); err == nil {
		t.Fatal("missing Rand accepted")
	}
	cfg := classicConfig("a", "a")
	cfg.ElectionTimeoutMin, cfg.ElectionTimeoutMax = time.Second, time.Second
	if _, err := New(cfg); err == nil {
		t.Fatal("degenerate election window accepted")
	}
}

func TestElectionTimeoutStartsCampaign(t *testing.T) {
	n := newClassicNode(t, "n1", "n1", "n2", "n3")
	n.Tick(time.Hour)
	if n.Role() != types.RoleCandidate {
		t.Fatalf("role = %v", n.Role())
	}
	if rv := len(envelopesOf[types.RequestVote](n.DrainOutbox(nil))); rv != 2 {
		t.Fatalf("sent %d RequestVotes, want 2", rv)
	}
	if n.Term() != 1 {
		t.Fatalf("term = %d", n.Term())
	}
}

func TestVoteGrantRules(t *testing.T) {
	n := newClassicNode(t, "n2", "n1", "n2", "n3")
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
	n := newClassicNode(t, "n2", "n1", "n2", "n3")
	// Give n2 a log entry at term 2.
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 2, LeaderID: "n1", Entries: []types.Entry{
			{Index: 1, Term: 2, Kind: types.KindNoop, Approval: types.ApprovedLeader},
		}}})
	n.DrainOutbox(nil)
	// A candidate with an empty log must be refused, also once the leader
	// has been silent past the stickiness window.
	n.Step(time.Minute, types.Envelope{From: "n3", To: "n2", Layer: types.LayerLocal,
		Msg: types.RequestVote{Term: 3, CandidateID: "n3", LastLogIndex: 0, LastLogTerm: 0}})
	out := n.DrainOutbox(nil)
	if len(out) != 1 || out[0].Msg.(types.RequestVoteResp).Granted {
		t.Fatalf("stale candidate granted: %v", out)
	}
	if n.Term() != 3 {
		t.Fatalf("term = %d: the refusal was not on log grounds", n.Term())
	}
}

func TestLeaderAppendsAndCommits(t *testing.T) {
	n := newClassicNode(t, "n1", "n1", "n2", "n3")
	electLeader(t, n, "n2", "n3")
	pid := n.Propose(time.Hour, []byte("x"))
	if pid.Proposer != "n1" {
		t.Fatalf("pid = %v", pid)
	}
	// The leader appends its own proposal at once; nothing is broadcast.
	if e, ok := n.Entry(n.LastLeaderIndex()); !ok || e.PID != pid || n.LastIndex() != n.LastLeaderIndex() {
		t.Fatalf("proposal not leader-appended: %v (last %d, head %d)", e, n.LastIndex(), n.LastLeaderIndex())
	}
	if out := n.DrainOutbox(nil); len(out) != 0 {
		t.Fatalf("Propose sent %v", out)
	}
	// The tick dispatches AppendEntries with the no-op and the entry.
	n.Tick(n.NextDeadline())
	aes := envelopesOf[types.AppendEntries](n.DrainOutbox(nil))
	if len(aes) == 0 || len(aes[0].Msg.(types.AppendEntries).Entries) == 0 {
		t.Fatalf("no AppendEntries carrying entries: %v", aes)
	}
	// The ack that completes the quorum commits inside Step, with no tick,
	// and the proposer resolution surfaces; nothing is dispatched.
	n.Step(time.Hour, types.Envelope{From: "n2", To: "n1", Layer: types.LayerLocal,
		Msg: types.AppendEntriesResp{Term: n.Term(), Success: true, MatchIndex: n.LastIndex()}})
	if n.CommitIndex() != n.LastIndex() {
		t.Fatalf("commit = %d, last = %d", n.CommitIndex(), n.LastIndex())
	}
	if res := n.DrainResolved(nil); len(res) != 1 || res[0].PID != pid {
		t.Fatalf("resolved = %v", res)
	}
	if out := n.DrainOutbox(nil); len(out) != 0 {
		t.Fatalf("commit on arrival dispatched %v", out)
	}
	if m := n.Metrics(); m["fastraft.commits_fast"] != 0 || m["fastraft.commits_classic"] == 0 {
		t.Fatalf("commit not counted as classic: %v", m)
	}
}

// TestSingleMemberCommitsAtTick: the leader's own append is the quorum, but
// a proposal is not an arrival; with no ack ever to arrive, the entry
// commits at the next heartbeat.
func TestSingleMemberCommitsAtTick(t *testing.T) {
	n := newClassicNode(t, "n1", "n1")
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
	n := newClassicNode(t, "n2", "n1", "n2", "n3")
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

// TestClassicFollowerCommitsOnlyWhatTheMessageVouchesFor: the classic-mode
// run of TestFollowerCommitsOnlyWhatTheMessageVouchesFor. Term 1 replicates
// 1..3 to n2 and commits 1; the term-2 leader heartbeats n2 at PrevLogIndex 1
// with LeaderCommit 3, which vouches for n2's log through index 1 only.
func TestClassicFollowerCommitsOnlyWhatTheMessageVouchesFor(t *testing.T) {
	n := newClassicNode(t, "n2", "n1", "n2", "n3")
	var suffix []types.Entry
	for i := types.Index(1); i <= 3; i++ {
		suffix = append(suffix, types.Entry{Index: i, Term: 1, Kind: types.KindNormal,
			Approval: types.ApprovedLeader,
			PID:      types.ProposalID{Proposer: "n1", Seq: uint64(i)}, Data: []byte("old")})
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

// TestFollowerReplacesConflictingEntry: a new leader's entry replaces the
// deposed leader's at the index where their logs conflict. Classic Raft
// truncates the suffix there; this core overwrites the slot in place
// instead (it never truncates, see applyLeaderEntry), and the deposed
// suffix can no longer commit (TestFollowerCommitsOnlyWhatTheMessageVouchesFor).
func TestFollowerReplacesConflictingEntry(t *testing.T) {
	n := newClassicNode(t, "n2", "n1", "n2", "n3")
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 1, LeaderID: "n1", Entries: []types.Entry{
			{Index: 1, Term: 1, Kind: types.KindNoop, Approval: types.ApprovedLeader},
			{Index: 2, Term: 1, Kind: types.KindNormal, Approval: types.ApprovedLeader,
				PID: types.ProposalID{Proposer: "n1", Seq: 1}, Data: []byte("old")},
		}}})
	n.DrainOutbox(nil)
	n.Step(time.Second, types.Envelope{From: "n3", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 2, LeaderID: "n3", PrevLogIndex: 1, PrevLogTerm: 1,
			Entries: []types.Entry{
				{Index: 2, Term: 2, Kind: types.KindNormal, Approval: types.ApprovedLeader,
					PID: types.ProposalID{Proposer: "n3", Seq: 1}, Data: []byte("new")},
			}}})
	n.DrainOutbox(nil)
	if e, ok := n.Entry(2); !ok || string(e.Data) != "new" || e.Term != 2 {
		t.Fatalf("conflict not resolved: %v", e)
	}
}

// TestProposalForwardingToLeader: a classic follower hands its proposal to
// the leader as one ClientPropose; it inserts nothing and sends no
// ProposeEntry or vote.
func TestProposalForwardingToLeader(t *testing.T) {
	n := newClassicNode(t, "n2", "n1", "n2", "n3")
	n.Step(time.Second, types.Envelope{From: "n1", To: "n2", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 1, LeaderID: "n1"}})
	n.DrainOutbox(nil)
	pid := n.Propose(time.Second, []byte("fwd"))
	out := n.DrainOutbox(nil)
	if len(out) != 1 || out[0].To != "n1" {
		t.Fatalf("proposal not forwarded to the leader alone: %v", out)
	}
	cp, ok := out[0].Msg.(types.ClientPropose)
	if !ok || cp.Entry.PID != pid || string(cp.Entry.Data) != "fwd" {
		t.Fatalf("forwarded %T %+v", out[0].Msg, out[0].Msg)
	}
	if n.LastIndex() != 0 {
		t.Fatalf("follower inserted its own proposal (last index %d)", n.LastIndex())
	}
	// With no leader known nothing is sent; the retry reaches the leader
	// once one is known.
	m := newClassicNode(t, "n3", "n1", "n2", "n3")
	m.Propose(time.Second, []byte("later"))
	if out := m.DrainOutbox(nil); len(out) != 0 {
		t.Fatalf("sent %v with no leader known", out)
	}
	retry := time.Second + m.cfg.ProposalTimeout
	m.Step(retry-time.Millisecond, types.Envelope{From: "n1", To: "n3", Layer: types.LayerLocal,
		Msg: types.AppendEntries{Term: 1, LeaderID: "n1"}})
	m.DrainOutbox(nil)
	m.Tick(retry)
	if cps := envelopesOf[types.ClientPropose](m.DrainOutbox(nil)); len(cps) != 1 || cps[0].To != "n1" {
		t.Fatalf("retry not sent to the leader: %v", cps)
	}
}

// TestLeaderDedupsReproposals: a retried ClientPropose appends nothing, and
// once the entry has committed the retry is answered with a CommitNotify
// naming its index and term.
func TestLeaderDedupsReproposals(t *testing.T) {
	n := newClassicNode(t, "n1", "n1", "n2", "n3")
	electLeader(t, n, "n2", "n3")
	e := proposal("n2", 1)
	propose := func() {
		n.Step(time.Hour, types.Envelope{From: "n2", To: "n1", Layer: types.LayerLocal,
			Msg: types.ClientPropose{Entry: e}})
	}
	propose()
	k := n.LastLeaderIndex()
	if got, _ := n.Entry(k); got.PID != e.PID {
		t.Fatalf("proposal not appended: %v", got)
	}
	propose()
	if n.LastIndex() != k {
		t.Fatalf("duplicate appended: last %d -> %d", k, n.LastIndex())
	}
	n.DrainOutbox(nil)
	ackLeaderLog(t, n, "n2", "n3")
	propose()
	if n.LastIndex() != k {
		t.Fatalf("committed duplicate appended: last %d -> %d", k, n.LastIndex())
	}
	cns := envelopesOf[types.CommitNotify](n.DrainOutbox(nil))
	if len(cns) != 1 || cns[0].To != "n2" {
		t.Fatalf("committed duplicate not answered: %v", cns)
	}
	if cn := cns[0].Msg.(types.CommitNotify); cn.PID != e.PID || cn.Index != k || cn.Term != n.Term() {
		t.Fatalf("answer = %+v, want index %d term %d", cn, k, n.Term())
	}
}

func TestLeaderStepsDownOnHigherTerm(t *testing.T) {
	n := newClassicNode(t, "n1", "n1", "n2", "n3")
	electLeader(t, n, "n2", "n3")
	n.Step(time.Hour, types.Envelope{From: "n2", To: "n1", Layer: types.LayerLocal,
		Msg: types.AppendEntriesResp{Term: n.Term() + 5}})
	if n.Role() != types.RoleFollower {
		t.Fatalf("role = %v", n.Role())
	}
}

func TestRestartRecoversPersistentState(t *testing.T) {
	cfg := classicConfig("n1", "n1")
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

// TestFollowerRetryUnderLossCommitsOnce runs a three-member classic group
// over a network that drops 5 % of messages, with a follower proposing 100
// payloads one after another. The proposal timeout is shorter than the
// heartbeat, so besides the retries of lost ClientProposes many proposals
// are retried while their first copy still waits at the leader for the
// tick; every payload must still commit exactly once, at the index its
// proposal resolved with.
func TestFollowerRetryUnderLossCommitsOnce(t *testing.T) {
	const proposals, loss, delay = 100, 0.05, time.Millisecond
	ids := []types.NodeID{"n1", "n2", "n3"}
	nodes := map[types.NodeID]*Node{}
	for i, id := range ids {
		cfg := classicConfig(id, ids...)
		cfg.Rand = rand.New(rand.NewSource(int64(i))) // distinct election timeouts
		cfg.ProposalTimeout = 60 * time.Millisecond
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
	}
	type flight struct {
		at  time.Duration
		env types.Envelope
	}
	var (
		rng      = rand.New(rand.NewSource(5))
		net      []flight // one delay for every message: kept in time order
		now      time.Duration
		applied  = map[types.NodeID]map[string]types.Index{}
		resolved = map[types.ProposalID]types.Index{}
		payload  = map[types.ProposalID]string{}
		sent     = map[string]int{}
		proposer types.NodeID
	)
	for _, id := range ids {
		applied[id] = map[string]types.Index{}
	}
	drain := func() {
		for _, id := range ids {
			n := nodes[id]
			for _, env := range n.DrainOutbox(nil) {
				sent[env.Msg.MsgName()]++
				if rng.Float64() >= loss {
					net = append(net, flight{now + delay, env})
				}
			}
			for _, e := range n.DrainCommitted(nil) {
				if e.Kind != types.KindNormal {
					continue
				}
				if prev, dup := applied[id][string(e.Data)]; dup {
					t.Fatalf("%s applied %q twice, at %d and %d", id, e.Data, prev, e.Index)
				}
				applied[id][string(e.Data)] = e.Index
			}
			for _, r := range n.DrainResolved(nil) {
				resolved[r.PID] = r.Index
			}
		}
	}
	propose := func() {
		data := []byte{byte(len(payload)), 'p'}
		payload[nodes[proposer].Propose(now, data)] = string(data)
	}
	for now < time.Minute {
		next := time.Duration(0)
		if len(net) > 0 {
			next = net[0].at
		}
		for _, n := range nodes {
			if d := n.NextDeadline(); d != 0 && (next == 0 || d < next) {
				next = d
			}
		}
		now = max(now, next)
		if len(net) > 0 && net[0].at <= now {
			f := net[0]
			net = net[1:]
			nodes[f.env.To].Step(now, f.env)
		} else {
			for _, n := range nodes {
				n.Tick(now)
			}
		}
		drain()
		if proposer == types.None {
			for _, id := range ids {
				if n := nodes[id]; n.Role() == types.RoleLeader && n.CommitIndex() > 0 {
					proposer = ids[(len(ids)+int(id[1]-'1')-1)%len(ids)] // a follower
					propose()
				}
			}
		} else if len(resolved) == len(payload) && len(payload) < proposals {
			propose()
		}
	}
	if len(resolved) != proposals {
		t.Fatalf("%d/%d proposals resolved (proposer %q, sent %v)", len(resolved), proposals, proposer, sent)
	}
	if sent["ClientPropose"] < proposals*5/4 {
		t.Fatalf("%d ClientProposes for %d proposals: no retry exercised", sent["ClientPropose"], proposals)
	}
	if sent["ProposeEntry"] != 0 || sent["VoteEntry"] != 0 {
		t.Fatalf("classic group sent fast-track traffic: %v", sent)
	}
	for pid, idx := range resolved {
		for _, id := range ids {
			if got := applied[id][payload[pid]]; got != idx {
				t.Fatalf("%s: payload %q at index %d, its proposal resolved with %d", id, payload[pid], got, idx)
			}
		}
	}
}
