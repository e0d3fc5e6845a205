package quorum

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hraft-io/hraft/internal/types"
)

func entryWith(pid types.ProposalID) types.Entry {
	return types.Entry{Kind: types.KindNormal, PID: pid, Data: []byte(pid.Proposer)}
}

func TestTallyVoteCountingAndDecide(t *testing.T) {
	cfg := types.NewConfig("a", "b", "c", "d", "e")
	tally := NewTally()
	e1 := entryWith(types.ProposalID{Proposer: "p1", Seq: 1})
	e2 := entryWith(types.ProposalID{Proposer: "p2", Seq: 1})
	tally.AddVote(1, "a", e1)
	tally.AddVote(1, "b", e1)
	tally.AddVote(1, "c", e2)
	if got := tally.Voters(1, cfg); got != 3 {
		t.Fatalf("Voters = %d, want 3", got)
	}
	d, ok := tally.Decide(1, cfg, nil)
	if !ok {
		t.Fatal("no decision")
	}
	if !d.Winner.SameProposal(e1) || d.Votes != 2 {
		t.Fatalf("winner = %v votes=%d", d.Winner, d.Votes)
	}
	if len(d.Losers) != 1 || !d.Losers[0].SameProposal(e2) {
		t.Fatalf("losers = %v", d.Losers)
	}
	if len(d.WinnerVoters) != 2 || d.WinnerVoters[0] != "a" || d.WinnerVoters[1] != "b" {
		t.Fatalf("winner voters = %v", d.WinnerVoters)
	}
}

func TestTallyRevoteReplacesPreviousVote(t *testing.T) {
	cfg := types.NewConfig("a", "b", "c")
	tally := NewTally()
	e1 := entryWith(types.ProposalID{Proposer: "p1", Seq: 1})
	e2 := entryWith(types.ProposalID{Proposer: "p2", Seq: 1})
	tally.AddVote(1, "a", e1)
	tally.AddVote(1, "a", e2) // a changes its vote (slot overwritten)
	if got := tally.Voters(1, cfg); got != 1 {
		t.Fatalf("Voters = %d, want 1", got)
	}
	d, ok := tally.Decide(1, cfg, nil)
	if !ok || !d.Winner.SameProposal(e2) {
		t.Fatalf("winner should be the re-voted entry, got %v", d.Winner)
	}
}

func TestTallyNonMemberVotesExcluded(t *testing.T) {
	cfg := types.NewConfig("a", "b", "c")
	tally := NewTally()
	e1 := entryWith(types.ProposalID{Proposer: "p1", Seq: 1})
	tally.AddVote(1, "zz", e1) // not a member
	if got := tally.Voters(1, cfg); got != 0 {
		t.Fatalf("Voters = %d, want 0", got)
	}
	if _, ok := tally.Decide(1, cfg, nil); ok {
		t.Fatal("non-member vote produced a decision")
	}
}

func TestTallyDeterministicTieBreak(t *testing.T) {
	cfg := types.NewConfig("a", "b", "c", "d")
	pid1 := types.ProposalID{Proposer: "p1", Seq: 9}
	pid2 := types.ProposalID{Proposer: "p2", Seq: 1}
	for trial := 0; trial < 20; trial++ {
		tally := NewTally()
		// Insert in varying order; tie at 2 votes each.
		if trial%2 == 0 {
			tally.AddVote(1, "a", entryWith(pid1))
			tally.AddVote(1, "b", entryWith(pid1))
			tally.AddVote(1, "c", entryWith(pid2))
			tally.AddVote(1, "d", entryWith(pid2))
		} else {
			tally.AddVote(1, "d", entryWith(pid2))
			tally.AddVote(1, "c", entryWith(pid2))
			tally.AddVote(1, "b", entryWith(pid1))
			tally.AddVote(1, "a", entryWith(pid1))
		}
		d, ok := tally.Decide(1, cfg, nil)
		if !ok {
			t.Fatal("no decision")
		}
		// pid1 < pid2 by proposer order.
		if d.Winner.PID != pid1 {
			t.Fatalf("trial %d: tie broke to %v, want %v", trial, d.Winner.PID, pid1)
		}
	}
}

func TestTallyNullProposal(t *testing.T) {
	cfg := types.NewConfig("a", "b", "c")
	tally := NewTally()
	pid := types.ProposalID{Proposer: "p1", Seq: 1}
	tally.AddVote(1, "a", entryWith(pid))
	tally.AddVote(2, "a", entryWith(pid))
	tally.AddVote(2, "b", entryWith(pid))
	tally.NullProposal(entryWith(pid), 1) // decided at 1: null elsewhere
	if d, ok := tally.Decide(2, cfg, nil); ok {
		t.Fatalf("nulled candidate decided at 2: %v", d.Winner)
	}
	if _, ok := tally.Decide(1, cfg, nil); !ok {
		t.Fatal("candidate at its decided index must survive")
	}
}

func TestTallySkipFunc(t *testing.T) {
	cfg := types.NewConfig("a", "b", "c")
	tally := NewTally()
	p1 := types.ProposalID{Proposer: "p1", Seq: 1}
	p2 := types.ProposalID{Proposer: "p2", Seq: 1}
	tally.AddVote(1, "a", entryWith(p1))
	tally.AddVote(1, "b", entryWith(p1))
	tally.AddVote(1, "c", entryWith(p2))
	d, ok := tally.Decide(1, cfg, func(e types.Entry) bool { return e.PID == p1 })
	if !ok {
		t.Fatal("skip should leave p2 decidable")
	}
	if d.Winner.PID != p2 {
		t.Fatalf("winner = %v, want p2", d.Winner.PID)
	}
}

func TestTallyClearAndMaxIndex(t *testing.T) {
	tally := NewTally()
	tally.AddVote(3, "a", entryWith(types.ProposalID{Proposer: "p", Seq: 1}))
	tally.AddVote(7, "a", entryWith(types.ProposalID{Proposer: "p", Seq: 2}))
	if tally.MaxIndex() != 7 || tally.Len() != 2 {
		t.Fatalf("max=%d len=%d", tally.MaxIndex(), tally.Len())
	}
	tally.Clear(3)
	if tally.Len() != 1 || tally.MaxIndex() != 7 {
		t.Fatalf("after clear: max=%d len=%d", tally.MaxIndex(), tally.Len())
	}
}

// TestQuickDecidePicksMaxVotes checks the fundamental decide property on
// random vote multisets: the winner's (member) vote count is maximal.
func TestQuickDecidePicksMaxVotes(t *testing.T) {
	members := []types.NodeID{"a", "b", "c", "d", "e", "f", "g"}
	cfg := types.NewConfig(members...)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tally := NewTally()
		counts := make(map[types.ProposalID]int)
		nCand := rng.Intn(4) + 1
		for _, m := range members {
			if rng.Intn(4) == 0 {
				continue // abstain
			}
			pid := types.ProposalID{Proposer: "p", Seq: uint64(rng.Intn(nCand) + 1)}
			tally.AddVote(1, m, entryWith(pid))
			counts[pid]++
		}
		d, ok := tally.Decide(1, cfg, nil)
		if len(counts) == 0 {
			return !ok
		}
		if !ok {
			return false
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return d.Votes == max && counts[d.Winner.PID] == max &&
			len(d.WinnerVoters) == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecideDeterministicAcrossInsertionOrder feeds the same vote
// multiset to two tallies in different orders: the decisions must be
// identical — the property C-Raft's recovery replay relies on.
func TestQuickDecideDeterministicAcrossInsertionOrder(t *testing.T) {
	members := []types.NodeID{"a", "b", "c", "d", "e"}
	cfg := types.NewConfig(members...)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		type voteRec struct {
			voter types.NodeID
			pid   types.ProposalID
		}
		var votes []voteRec
		for _, m := range members {
			if rng.Intn(5) == 0 {
				continue
			}
			votes = append(votes, voteRec{
				voter: m,
				pid:   types.ProposalID{Proposer: "p", Seq: uint64(rng.Intn(3) + 1)},
			})
		}
		t1, t2 := NewTally(), NewTally()
		for _, v := range votes {
			t1.AddVote(1, v.voter, entryWith(v.pid))
		}
		for i := len(votes) - 1; i >= 0; i-- {
			t2.AddVote(1, votes[i].voter, entryWith(votes[i].pid))
		}
		d1, ok1 := t1.Decide(1, cfg, nil)
		d2, ok2 := t2.Decide(1, cfg, nil)
		if ok1 != ok2 {
			return false
		}
		if !ok1 {
			return true
		}
		return d1.Winner.PID == d2.Winner.PID && d1.Votes == d2.Votes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestTallyFastCandidate(t *testing.T) {
	cfg := types.NewConfig("a", "b", "c", "d", "e")
	q := FastSize(cfg.Size()) // 4
	p1 := entryWith(types.ProposalID{Proposer: "p1", Seq: 1})
	p2 := entryWith(types.ProposalID{Proposer: "p2", Seq: 1})
	tally := NewTally()
	if _, ok := tally.FastCandidate(1, cfg, q); ok {
		t.Fatal("fast candidate at an index nobody voted on")
	}
	for _, v := range []types.NodeID{"a", "b", "c"} {
		tally.AddVote(1, v, p1)
	}
	tally.AddVote(1, "zz", p1) // four votes, three of them members'
	tally.AddVote(1, "e", p2)
	if e, ok := tally.FastCandidate(1, cfg, q); ok {
		t.Fatalf("fast candidate %v on three member votes", e.PID)
	}
	tally.AddVote(1, "d", p1)
	if e, ok := tally.FastCandidate(1, cfg, q); !ok || e.PID != p1.PID {
		t.Fatalf("fast candidate = %v %v, want p1", e.PID, ok)
	}
	// A voter moving away takes the quorum with it.
	tally.AddVote(1, "d", p2)
	if _, ok := tally.FastCandidate(1, cfg, q); ok {
		t.Fatal("fast candidate survived a re-vote that broke its quorum")
	}
	tally.AddVote(1, "d", p1)
	// Decided elsewhere: nulled candidates do not qualify.
	tally.NullProposal(p1, 2)
	if _, ok := tally.FastCandidate(1, cfg, q); ok {
		t.Fatal("nulled candidate reported as fast candidate")
	}
}

// TestTallyClearKeepsNullProposalBookkeeping walks the incremental paths
// of Clear and NullProposal against each other: clearing an index must
// unlist its candidates, so a later NullProposal touches only live ones,
// and votes for an index already cleared are dropped.
func TestTallyClearKeepsNullProposalBookkeeping(t *testing.T) {
	cfg := types.NewConfig("a", "b", "c")
	pid := types.ProposalID{Proposer: "p1", Seq: 1}
	tally := NewTally()
	for idx := types.Index(1); idx <= 4; idx++ {
		tally.AddVote(idx, "a", entryWith(pid))
		tally.AddVote(idx, "b", entryWith(pid))
	}
	tally.Clear(2) // the step-by-step path
	tally.NullProposal(entryWith(pid), 3)
	if _, ok := tally.Decide(3, cfg, nil); !ok {
		t.Fatal("candidate at its decided index must survive")
	}
	if _, ok := tally.Decide(4, cfg, nil); ok {
		t.Fatal("candidate not nulled at another live index")
	}
	tally.AddVote(2, "c", entryWith(pid))
	if tally.Len() != 2 {
		t.Fatalf("vote below the cleared floor was tracked: %d indexes", tally.Len())
	}
	tally.AddVote(900, "a", entryWith(pid))
	tally.Clear(500) // the sparse path: far more indexes than entries
	if tally.Len() != 1 || tally.MaxIndex() != 900 {
		t.Fatalf("after sparse clear: %d indexes up to %d", tally.Len(), tally.MaxIndex())
	}
	tally.NullProposal(entryWith(pid), 0)
	if _, ok := tally.Decide(900, cfg, nil); ok {
		t.Fatal("candidate listed after a sparse clear was not nulled")
	}
}

// TestTallyFastPossible: a fast quorum can still form while some
// non-nulled candidate plus every member yet to vote reaches it.
func TestTallyFastPossible(t *testing.T) {
	cfg := types.NewConfig("a", "b", "c", "d", "e")
	q := FastSize(cfg.Size()) // 4
	p1 := entryWith(types.ProposalID{Proposer: "p1", Seq: 1})
	p2 := entryWith(types.ProposalID{Proposer: "p2", Seq: 1})
	tally := NewTally()
	if !tally.FastPossible(1, cfg, q) {
		t.Fatal("nobody voted yet: a fast quorum is possible")
	}
	tally.AddVoteAt(1, "a", p1, 7)
	tally.AddVoteAt(1, "b", p1, 9)
	tally.AddVoteAt(1, "zz", p2, 9) // not a member: neither a vote nor an absence
	if got := tally.FirstVote(1); got != 7 {
		t.Fatalf("FirstVote = %v, want the first vote's instant 7", got)
	}
	if !tally.Voted(1, "a") || tally.Voted(1, "c") || tally.Voted(2, "a") {
		t.Fatal("Voted disagrees with the votes cast")
	}
	if !tally.FastPossible(1, cfg, q) {
		t.Fatal("p1 has 2 votes and 3 members to go")
	}
	tally.AddVote(1, "c", p2)
	if !tally.FastPossible(1, cfg, q) {
		t.Fatal("p1 has 2 votes and 2 members to go")
	}
	tally.AddVote(1, "d", p2) // p1: 2 + 1 absent; p2: 2 + 1 absent
	if tally.FastPossible(1, cfg, q) {
		t.Fatal("split vote reported as able to reach a fast quorum")
	}
	tally.AddVote(1, "c", p1) // c re-votes: p1 3 + 1 absent
	if !tally.FastPossible(1, cfg, q) {
		t.Fatal("re-vote restored p1's chance")
	}
	tally.NullProposal(p1, 2) // decided elsewhere
	if tally.FastPossible(1, cfg, q) {
		t.Fatal("a nulled candidate counted toward a fast quorum")
	}
}
