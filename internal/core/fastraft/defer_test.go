package fastraft

import (
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

// A tick decides on a classic quorum only after a fast quorum that could
// still form has had one round trip to arrive: the round trip is the
// largest smoothed RTT among the members that have not voted, counted from
// the index's first vote. Three members throughout; n3 is the slow one.

const slowRTT = 50 * time.Millisecond

func stepAt(n *Node, now time.Duration, from types.NodeID, msg types.Message) {
	n.Step(now, types.Envelope{From: from, To: n.ID(), Layer: types.LayerLocal, Msg: msg})
}

// slowThirdLeader returns n1 leading {n1,n2,n3} with n2's round trip at
// 1 ms and n3's at slowRTT, measured the way the leader measures them (an
// AppendEntries carrying an entry, acknowledged one round trip later).
func slowThirdLeader(t *testing.T) *Node {
	t.Helper()
	n := threeLeader(t, testConfig("n1", threePeers...))
	// One entry committed on the fast track, then shipped at the tick.
	e := proposal("n3", 100)
	k := n.LastLeaderIndex() + 1
	stepFrom(n, "n3", types.ProposeEntry{Index: k, Entry: e})
	stepFrom(n, "n2", vote(k, e, n.Term(), n.CommitIndex()))
	stepFrom(n, "n3", vote(k, e, n.Term(), n.CommitIndex()))
	if n.CommitIndex() != k {
		t.Fatalf("setup entry not committed: commit=%d, want %d", n.CommitIndex(), k)
	}
	// A vote re-probes its voter; an ack below k puts both back to
	// replicating, so the tick's append joins the inflight window.
	ack(n, "n2", k-1)
	ack(n, "n3", k-1)
	sent := n.NextDeadline()
	n.Tick(sent)
	n.DrainOutbox(nil)
	n.DrainCommitted(nil)
	stepAt(n, sent+time.Millisecond, "n2", types.AppendEntriesResp{Term: n.Term(), Success: true, MatchIndex: k})
	stepAt(n, sent+slowRTT, "n3", types.AppendEntriesResp{Term: n.Term(), Success: true, MatchIndex: k})
	if got := n.progress.Get("n3").RTT(); got != slowRTT {
		t.Fatalf("n3 srtt = %v, want %v", got, slowRTT)
	}
	if got := n.progress.Get("n2").RTT(); got != time.Millisecond {
		t.Fatalf("n2 srtt = %v, want 1ms", got)
	}
	n.DrainOutbox(nil)
	return n
}

// twoVotesBeforeTick has the leader (on n3's proposal) and n2 vote for e at
// the next index, lead before the leader's next tick, and returns the index
// and the instant of the first vote.
func twoVotesBeforeTick(n *Node, e types.Entry, lead time.Duration) (types.Index, time.Duration) {
	k := n.LastLeaderIndex() + 1
	first := n.NextDeadline() - lead
	stepAt(n, first, "n3", types.ProposeEntry{Index: k, Entry: e}) // the leader's own vote
	stepAt(n, first, "n2", vote(k, e, n.Term(), n.CommitIndex()))
	return k, first
}

func TestTickDefersWhileFastQuorumArrives(t *testing.T) {
	n := slowThirdLeader(t)
	e := proposal("n3", 1)
	k, first := twoVotesBeforeTick(n, e, 10*time.Millisecond)
	tick := n.NextDeadline()
	n.Tick(tick)
	if n.LastLeaderIndex() >= k {
		t.Fatalf("tick %v after the first vote decided index %d inside n3's round trip", tick-first, k)
	}
	m := n.Metrics()
	if m["fastraft.decisions_deferred"] != 1 || m["fastraft.decisions_on_tick"] != 0 {
		t.Fatalf("deferred %d, on tick %d; want 1, 0", m["fastraft.decisions_deferred"], m["fastraft.decisions_on_tick"])
	}
	// n3's vote lands inside the round trip and completes the fast quorum.
	stepAt(n, first+slowRTT-time.Millisecond, "n3", vote(k, e, n.Term(), n.CommitIndex()))
	if n.CommitIndex() != k {
		t.Fatalf("third vote did not commit inside Step: commit=%d, want %d", n.CommitIndex(), k)
	}
	m = n.Metrics()
	if m["fastraft.commits_fast"] != 2 || m["fastraft.decisions_on_arrival"] != 2 {
		t.Fatalf("fast %d, on arrival %d; want 2, 2 (setup entry included)", m["fastraft.commits_fast"], m["fastraft.decisions_on_arrival"])
	}
}

func TestTickDecidesClassicOnceRoundTripPassed(t *testing.T) {
	n := slowThirdLeader(t)
	e := proposal("n3", 1)
	k, first := twoVotesBeforeTick(n, e, 10*time.Millisecond)
	var ticks []time.Duration
	for n.LastLeaderIndex() < k {
		if len(ticks) == 5 {
			t.Fatalf("index %d still undecided after ticks %v", k, ticks)
		}
		now := n.NextDeadline()
		ticks = append(ticks, now)
		n.Tick(now)
	}
	last := ticks[len(ticks)-1]
	if last < first+slowRTT {
		t.Fatalf("decided at %v after the first vote, inside n3's round trip", last-first)
	}
	for _, at := range ticks[:len(ticks)-1] {
		if at >= first+slowRTT {
			t.Fatalf("tick %v after the first vote left the index to a silent member", at-first)
		}
	}
	if got, _ := n.Entry(k); !got.SameProposal(e) || n.CommitIndex() >= k {
		t.Fatalf("entry %v commit %d: want e decided, left to the classic track", got, n.CommitIndex())
	}
	ack(n, "n2", k)
	if n.CommitIndex() != k {
		t.Fatalf("classic ack did not commit: commit=%d, want %d", n.CommitIndex(), k)
	}
	m := n.Metrics()
	if m["fastraft.decisions_on_tick"] != 1 || m["fastraft.decisions_deferred"] != uint64(len(ticks)-1) {
		t.Fatalf("on tick %d, deferred %d; want 1, %d", m["fastraft.decisions_on_tick"], m["fastraft.decisions_deferred"], len(ticks)-1)
	}
}

func TestTickDecidesSplitVoteAtOnce(t *testing.T) {
	n := slowThirdLeader(t)
	e, other := proposal("n3", 1), proposal("n2", 1)
	k := n.LastLeaderIndex() + 1
	first := n.NextDeadline() - 10*time.Millisecond
	stepAt(n, first, "n3", types.ProposeEntry{Index: k, Entry: e})
	stepAt(n, first, "n2", vote(k, other, n.Term(), n.CommitIndex()))
	n.Tick(n.NextDeadline())
	if n.LastLeaderIndex() < k {
		t.Fatal("split vote (no fast quorum possible) not decided at the first tick")
	}
	m := n.Metrics()
	if m["fastraft.decisions_deferred"] != 0 || m["fastraft.decisions_on_tick"] != 1 {
		t.Fatalf("deferred %d, on tick %d; want 0, 1", m["fastraft.decisions_deferred"], m["fastraft.decisions_on_tick"])
	}
}

// TestTickUnknownRoundTripDecidesAsBefore: with no round-trip sample for
// the silent member (srtt 0) the tick decides exactly as it did before the
// deferral rule — at the first tick, dispatching the decided entry in that
// tick's heartbeat round (TestTwoOfThreeVotesWaitForTickThenRideClassicTrack
// pins the rest of that path).
func TestTickUnknownRoundTripDecidesAsBefore(t *testing.T) {
	n := threeLeader(t, testConfig("n1", threePeers...))
	if n.progress.Get("n3").RTT() != 0 {
		t.Fatal("setup: n3 has a round-trip sample")
	}
	e := proposal("n3", 1)
	k, _ := twoVotesBeforeTick(n, e, 10*time.Millisecond)
	n.DrainOutbox(nil)
	n.Tick(n.NextDeadline())
	if got, ok := n.Entry(k); !ok || got.Approval != types.ApprovedLeader || !got.SameProposal(e) {
		t.Fatalf("not decided at the first tick: %v %v", got, ok)
	}
	var shipped bool
	for _, env := range n.DrainOutbox(nil) {
		if ae, ok := env.Msg.(types.AppendEntries); ok && len(ae.Entries) > 0 && ae.Entries[len(ae.Entries)-1].Index == k {
			shipped = true
		}
	}
	if !shipped {
		t.Fatal("the deciding tick did not dispatch the entry")
	}
	m := n.Metrics()
	if m["fastraft.decisions_deferred"] != 0 || m["fastraft.decisions_on_tick"] != 1 {
		t.Fatalf("deferred %d, on tick %d; want 0, 1", m["fastraft.decisions_deferred"], m["fastraft.decisions_on_tick"])
	}
}
