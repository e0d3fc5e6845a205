package quorum

import (
	"sort"

	"github.com/hraft-io/hraft/internal/types"
)

// Tally is the paper's possibleEntries structure: for each log index, the
// set of distinct proposed entries and the sites that voted for each. A
// Fast Raft leader feeds follower votes (and recovered self-approved
// entries after an election) into the tally and reads decisions out of it.
//
// The leader consults the tally on every vote it receives, so the queries
// on that path are bounded by the work at hand, never by the number of
// indexes tracked: FastCandidate rejects with one field read, and
// NullProposal and Clear touch only the indexes concerned.
type Tally struct {
	byIndex map[types.Index]*indexTally
	// where lists, per proposal identity, the indexes holding a candidate
	// for it; NullProposal walks it instead of every tracked index.
	where map[candidateKey][]types.Index
	// floor is the highest index Clear has discarded through; nothing at or
	// below it is tracked.
	floor types.Index
}

type indexTally struct {
	// candidates maps a proposal identity to its candidate record.
	candidates map[candidateKey]*candidate
	// voters records which sites have voted at this index (a site votes at
	// most once per index; re-votes replace the previous vote).
	voters map[types.NodeID]candidateKey
	// most is the largest vote count any candidate here has reached. It is
	// never lowered, so it bounds every candidate's count from above: below
	// a fast quorum, no candidate can hold one.
	most int
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
	entry  types.Entry
	voters map[types.NodeID]struct{}
	// nulled marks a candidate suppressed because its proposal was decided
	// at another index (the paper's "set to a null vote" rule).
	nulled bool
}

// NewTally returns an empty tally.
func NewTally() *Tally {
	return &Tally{
		byIndex: make(map[types.Index]*indexTally),
		where:   make(map[candidateKey][]types.Index),
	}
}

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

// AddVote records that voter voted for entry e at index idx. A voter's
// newer vote at the same index replaces its older one (a follower re-votes
// with its slot occupant, which may have been overwritten by the leader).
func (t *Tally) AddVote(idx types.Index, voter types.NodeID, e types.Entry) {
	if idx <= t.floor {
		return // already cleared: the index is committed
	}
	it := t.byIndex[idx]
	if it == nil {
		it = &indexTally{
			candidates: make(map[candidateKey]*candidate),
			voters:     make(map[types.NodeID]candidateKey),
		}
		t.byIndex[idx] = it
	}
	k := keyOf(e)
	if prev, voted := it.voters[voter]; voted {
		if prev == k {
			return
		}
		if c := it.candidates[prev]; c != nil {
			delete(c.voters, voter)
		}
	}
	it.voters[voter] = k
	c := it.candidates[k]
	if c == nil {
		c = &candidate{entry: e.Clone(), voters: make(map[types.NodeID]struct{})}
		it.candidates[k] = c
		t.where[k] = append(t.where[k], idx)
	}
	c.voters[voter] = struct{}{}
	if len(c.voters) > it.most {
		it.most = len(c.voters)
	}
}

// FastCandidate returns the candidate at idx that at least q members of cfg
// have voted for, if there is one and it was not nulled. With q a fast
// quorum at most one candidate can qualify. The returned entry is the
// tally's own copy and must not be modified.
func (t *Tally) FastCandidate(idx types.Index, cfg types.Config, q int) (types.Entry, bool) {
	it := t.byIndex[idx]
	if it == nil || it.most < q {
		return types.Entry{}, false
	}
	for _, c := range it.candidates {
		if c.nulled || len(c.voters) < q {
			continue
		}
		votes := 0
		for v := range c.voters {
			if cfg.Contains(v) {
				votes++
			}
		}
		if votes >= q {
			return c.entry, true
		}
	}
	return types.Entry{}, false
}

// Voters returns the number of distinct configuration members that have
// voted at idx.
func (t *Tally) Voters(idx types.Index, cfg types.Config) int {
	it := t.byIndex[idx]
	if it == nil {
		return 0
	}
	n := 0
	for v := range it.voters {
		if cfg.Contains(v) {
			n++
		}
	}
	return n
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
	it := t.byIndex[idx]
	if it == nil {
		return Decision{}, false
	}
	type scored struct {
		key   candidateKey
		c     *candidate
		votes int
	}
	var list []scored
	for k, c := range it.candidates {
		if c.nulled || (skip != nil && skip(c.entry)) {
			continue
		}
		votes := 0
		for v := range c.voters {
			if cfg.Contains(v) {
				votes++
			}
		}
		if votes == 0 {
			continue
		}
		list = append(list, scored{key: k, c: c, votes: votes})
	}
	if len(list) == 0 {
		return Decision{}, false
	}
	if len(list) > 1 { // the uncontended index has one candidate
		sort.Slice(list, func(i, j int) bool {
			if list[i].votes != list[j].votes {
				return list[i].votes > list[j].votes
			}
			// Deterministic tie-break: PID order, then kind/sum.
			a, b := list[i].key, list[j].key
			if a.pid != b.pid {
				return a.pid.Less(b.pid)
			}
			if a.kind != b.kind {
				return a.kind < b.kind
			}
			return a.sum < b.sum
		})
	}
	win := list[0]
	d := Decision{Winner: win.c.entry.Clone(), Votes: win.votes}
	// Members are kept sorted, so walking them yields the voters in order.
	d.WinnerVoters = make([]types.NodeID, 0, win.votes)
	for _, m := range cfg.Members {
		if _, voted := win.c.voters[m]; voted {
			d.WinnerVoters = append(d.WinnerVoters, m)
		}
	}
	for _, s := range list[1:] {
		d.Losers = append(d.Losers, s.c.entry.Clone())
	}
	return d, true
}

// NullProposal suppresses every candidate matching entry e's proposal
// identity at all indices other than except. It implements the paper's
// duplicate-avoidance rule when a proposal is decided at some index.
func (t *Tally) NullProposal(e types.Entry, except types.Index) {
	k := keyOf(e)
	for _, idx := range t.where[k] {
		if idx != except {
			t.byIndex[idx].candidates[k].nulled = true
		}
	}
}

// Clear discards all state at or below idx; the leader calls it as its
// commit index advances.
func (t *Tally) Clear(idx types.Index) {
	if idx <= t.floor {
		return
	}
	if span := idx - t.floor; span <= types.Index(len(t.byIndex)) {
		// The usual call: the commit index moved up by one or a few.
		for i := t.floor + 1; i <= idx; i++ {
			t.drop(i)
		}
	} else {
		for i := range t.byIndex {
			if i <= idx {
				t.drop(i)
			}
		}
	}
	t.floor = idx
}

// drop discards index i and unlists its candidates.
func (t *Tally) drop(i types.Index) {
	it := t.byIndex[i]
	if it == nil {
		return
	}
	delete(t.byIndex, i)
	for k := range it.candidates {
		at := t.where[k]
		for j, idx := range at {
			if idx == i {
				at[j] = at[len(at)-1]
				at = at[:len(at)-1]
				break
			}
		}
		if len(at) == 0 {
			delete(t.where, k)
		} else {
			t.where[k] = at
		}
	}
}

// MaxIndex returns the highest index with any recorded vote, or 0.
func (t *Tally) MaxIndex() types.Index {
	var max types.Index
	for i := range t.byIndex {
		if i > max {
			max = i
		}
	}
	return max
}

// PendingIndexes returns all indexes with votes, ascending. Used by tests
// and by the leader when re-sequencing orphaned proposals.
func (t *Tally) PendingIndexes() []types.Index {
	out := make([]types.Index, 0, len(t.byIndex))
	for i := range t.byIndex {
		out = append(out, i)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Len returns the number of indexes currently tracked.
func (t *Tally) Len() int { return len(t.byIndex) }
