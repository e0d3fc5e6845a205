package quorum

import (
	"cmp"
	"slices"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

// Tally is the paper's possibleEntries structure: for each log index, the
// set of distinct proposed entries and the sites that voted for each. A
// Fast Raft leader feeds follower votes (and recovered self-approved
// entries after an election) into the tally and reads decisions out of it.
//
// The leader consults the tally on every vote it receives, so that path
// allocates nothing once an index is tracked and FastCandidate rejects with
// one field read. Groups are small (at most nine members in every
// deployment here), so each index keeps its candidates and votes in short
// slices, inline for the common case of one candidate, and the tracked
// indexes (the few above the commit point) sit in one sorted slice.
type Tally struct {
	// pending holds the tracked indexes in ascending order.
	pending []*indexTally
	// floor is the highest index Clear has discarded through; nothing at or
	// below it is tracked.
	floor types.Index
}

type indexTally struct {
	idx types.Index
	// cands are the distinct proposals voted for here, in arrival order.
	cands []candidate
	// votes holds each site's current vote here: a site votes at most once
	// per index, and a re-vote replaces the previous one.
	votes []vote
	// most is the largest vote count any candidate here has reached. It is
	// never lowered, so it bounds every candidate's count from above: below
	// a fast quorum, no candidate can hold one.
	most int
	// first is when the index's first vote arrived (AddVoteAt's instant):
	// the leader's tick gives a fast quorum still arriving one round trip
	// from here before it settles for a classic one.
	first time.Duration

	candBuf [1]candidate
	voteBuf [9]vote
}

// vote is one site's vote at an index: cand indexes indexTally.cands.
type vote struct {
	voter types.NodeID
	cand  int
}

// candidateKey identifies a distinct proposed value. Entries with a PID key
// by PID; leader-internal entries key by kind+payload hash (they are never
// proposed on the fast track, so collisions are not a safety concern).
type candidateKey struct {
	pid  types.ProposalID
	kind types.EntryKind
	sum  uint64
}

type candidate struct {
	key   candidateKey
	entry types.Entry
	// count is the number of sites (members or not) currently voting for it.
	count int
	// nulled marks a candidate suppressed because its proposal was decided
	// at another index (the paper's "set to a null vote" rule).
	nulled bool
}

// NewTally returns an empty tally.
func NewTally() *Tally { return &Tally{} }

func keyOf(e types.Entry) candidateKey {
	if !e.PID.IsZero() {
		return candidateKey{pid: e.PID}
	}
	return candidateKey{kind: e.Kind, sum: fnv64(e.Data)}
}

func fnv64(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// find returns the position of idx in pending and whether it is tracked.
func (t *Tally) find(idx types.Index) (int, bool) {
	return slices.BinarySearchFunc(t.pending, idx, func(it *indexTally, idx types.Index) int {
		return cmp.Compare(it.idx, idx)
	})
}

func (t *Tally) at(idx types.Index) *indexTally {
	if i, ok := t.find(idx); ok {
		return t.pending[i]
	}
	return nil
}

// memberVotes counts the configuration members voting for candidate c.
func (it *indexTally) memberVotes(c int, cfg types.Config) int {
	n := 0
	for _, v := range it.votes {
		if v.cand == c && cfg.Contains(v.voter) {
			n++
		}
	}
	return n
}

// AddVote records that voter voted for entry e at index idx. A voter's
// newer vote at the same index replaces its older one (a follower re-votes
// with its slot occupant, which may have been overwritten by the leader).
// The vote carries no arrival instant; see AddVoteAt.
func (t *Tally) AddVote(idx types.Index, voter types.NodeID, e types.Entry) {
	t.AddVoteAt(idx, voter, e, 0)
}

// AddVoteAt is AddVote for a vote that arrived at the given instant; the
// first vote at an index stamps FirstVote.
func (t *Tally) AddVoteAt(idx types.Index, voter types.NodeID, e types.Entry, at time.Duration) {
	if idx <= t.floor {
		return // already cleared: the index is committed
	}
	i, ok := t.find(idx)
	if !ok {
		it := &indexTally{idx: idx, first: at}
		it.cands, it.votes = it.candBuf[:0], it.voteBuf[:0]
		t.pending = slices.Insert(t.pending, i, it)
	}
	it := t.pending[i]
	k := keyOf(e)
	c := slices.IndexFunc(it.cands, func(c candidate) bool { return c.key == k })
	if c < 0 {
		c = len(it.cands)
		it.cands = append(it.cands, candidate{key: k, entry: e})
	}
	v := slices.IndexFunc(it.votes, func(v vote) bool { return v.voter == voter })
	switch {
	case v < 0:
		it.votes = append(it.votes, vote{voter: voter, cand: c})
	case it.votes[v].cand == c:
		return
	default:
		it.cands[it.votes[v].cand].count--
		it.votes[v].cand = c
	}
	it.cands[c].count++
	it.most = max(it.most, it.cands[c].count)
}

// FastCandidate returns the candidate at idx that at least q members of cfg
// have voted for, if there is one and it was not nulled. With q a fast
// quorum at most one candidate can qualify.
func (t *Tally) FastCandidate(idx types.Index, cfg types.Config, q int) (types.Entry, bool) {
	it := t.at(idx)
	if it == nil || it.most < q {
		return types.Entry{}, false
	}
	for i, c := range it.cands {
		if !c.nulled && c.count >= q && it.memberVotes(i, cfg) >= q {
			return c.entry, true
		}
	}
	return types.Entry{}, false
}

// Voters returns the number of distinct configuration members that have
// voted at idx.
func (t *Tally) Voters(idx types.Index, cfg types.Config) int {
	it := t.at(idx)
	if it == nil {
		return 0
	}
	return it.memberVoters(cfg)
}

func (it *indexTally) memberVoters(cfg types.Config) int {
	n := 0
	for _, v := range it.votes {
		if cfg.Contains(v.voter) {
			n++
		}
	}
	return n
}

// Voted reports whether voter has a vote at idx.
func (t *Tally) Voted(idx types.Index, voter types.NodeID) bool {
	it := t.at(idx)
	return it != nil && slices.ContainsFunc(it.votes, func(v vote) bool { return v.voter == voter })
}

// FirstVote returns when the first vote at idx arrived (0 if untracked or
// recorded without an instant).
func (t *Tally) FirstVote(idx types.Index) time.Duration {
	if it := t.at(idx); it != nil {
		return it.first
	}
	return 0
}

// FastPossible reports whether a fast quorum of q members of cfg can still
// form at idx: some candidate that was not nulled, together with every
// member that has not voted there yet, reaches q.
func (t *Tally) FastPossible(idx types.Index, cfg types.Config, q int) bool {
	it := t.at(idx)
	if it == nil {
		return cfg.Size() >= q
	}
	absent := cfg.Size() - it.memberVoters(cfg)
	for i, c := range it.cands {
		if !c.nulled && it.memberVotes(i, cfg)+absent >= q {
			return true
		}
	}
	return false
}

// Decision is the result of deciding an index.
type Decision struct {
	// Winner is the entry with the most votes (ties broken by ProposalID
	// order for determinism). Winner.Index is not set by the tally.
	Winner types.Entry
	// WinnerVoters are the configuration members that voted for the winner.
	WinnerVoters []types.NodeID
	// Losers are the other distinct, non-nulled candidate entries at the
	// index, most-voted first. The leader re-sequences them at later
	// indices so their proposers need not wait for a proposal timeout.
	Losers []types.Entry
	// Votes is the winner's vote count among configuration members.
	Votes int
}

// Decide returns the decision for idx among configuration members, or
// ok=false if no votes are present (the caller then decides a no-op).
// Candidates whose proposal was nulled (decided elsewhere) or that appear
// in skip are excluded; if every candidate is excluded ok=false.
func (t *Tally) Decide(idx types.Index, cfg types.Config, skip func(types.Entry) bool) (Decision, bool) {
	it := t.at(idx)
	if it == nil {
		return Decision{}, false
	}
	type scored struct {
		c     int
		votes int
	}
	var buf [1]scored // the uncontended index has one candidate
	list := buf[:0]
	for i, c := range it.cands {
		if c.nulled || (skip != nil && skip(c.entry)) {
			continue
		}
		if votes := it.memberVotes(i, cfg); votes > 0 {
			list = append(list, scored{c: i, votes: votes})
		}
	}
	if len(list) == 0 {
		return Decision{}, false
	}
	// Most votes first; ties break deterministically by PID order, then
	// kind/sum.
	slices.SortFunc(list, func(x, y scored) int {
		if x.votes != y.votes {
			return y.votes - x.votes
		}
		a, b := it.cands[x.c].key, it.cands[y.c].key
		switch {
		case a.pid != b.pid:
			if a.pid.Less(b.pid) {
				return -1
			}
			return 1
		case a.kind != b.kind:
			return cmp.Compare(a.kind, b.kind)
		default:
			return cmp.Compare(a.sum, b.sum)
		}
	})
	win := list[0]
	d := Decision{Winner: it.cands[win.c].entry, Votes: win.votes}
	// Members are kept sorted, so walking them yields the voters in order.
	d.WinnerVoters = make([]types.NodeID, 0, win.votes)
	for _, m := range cfg.Members {
		if slices.Contains(it.votes, vote{voter: m, cand: win.c}) {
			d.WinnerVoters = append(d.WinnerVoters, m)
		}
	}
	for _, s := range list[1:] {
		d.Losers = append(d.Losers, it.cands[s.c].entry)
	}
	return d, true
}

// NullProposal suppresses every candidate matching entry e's proposal
// identity at all indices other than except. It implements the paper's
// duplicate-avoidance rule when a proposal is decided at some index.
func (t *Tally) NullProposal(e types.Entry, except types.Index) {
	k := keyOf(e)
	for _, it := range t.pending {
		if it.idx == except {
			continue
		}
		for i := range it.cands {
			if it.cands[i].key == k {
				it.cands[i].nulled = true
			}
		}
	}
}

// Clear discards all state at or below idx; the leader calls it as its
// commit index advances.
func (t *Tally) Clear(idx types.Index) {
	if idx <= t.floor {
		return
	}
	i, _ := t.find(idx + 1) // the first index above idx
	n := copy(t.pending, t.pending[i:])
	clear(t.pending[n:])
	t.pending = t.pending[:n]
	t.floor = idx
}

// MaxIndex returns the highest index with any recorded vote, or 0.
func (t *Tally) MaxIndex() types.Index {
	if len(t.pending) == 0 {
		return 0
	}
	return t.pending[len(t.pending)-1].idx
}

// Len returns the number of indexes currently tracked.
func (t *Tally) Len() int { return len(t.pending) }
