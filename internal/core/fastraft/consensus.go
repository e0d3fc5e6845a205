package fastraft

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"github.com/hraft-io/hraft/internal/quorum"
	"github.com/hraft-io/hraft/internal/replica"
	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// --- Proposing -----------------------------------------------------------

// Propose submits an application entry from this site: the proposer
// broadcasts it to every configuration member at a chosen index (with
// Config.DisableFastTrack, hands it to the leader instead; see
// forwardProposal) and tracks it until resolution (the paper's
// proposal-timeout retry loop).
func (n *Node) Propose(now time.Duration, data []byte) types.ProposalID {
	return n.ProposeEntry(now, types.Entry{
		Kind: types.KindNormal,
		Data: append([]byte(nil), data...),
	})
}

// ProposeEntry submits an arbitrary entry (used by C-Raft to propose
// global-state entries). The entry's PID is assigned here.
func (n *Node) ProposeEntry(now time.Duration, e types.Entry) types.ProposalID {
	n.now = now
	n.proposalSeq++
	pid := types.ProposalID{Proposer: n.cfg.ID, Seq: n.proposalSeq}
	return n.ProposeEntryPID(now, e, pid)
}

// ProposeEntryPID submits an entry under a caller-chosen ProposalID. C-Raft
// uses deterministic batch PIDs (cluster, batch sequence) so a successor
// local leader re-proposing a batch de-duplicates against the original.
// Proposing an already-pending PID is a no-op.
//
// Proposer backpressure: with Config.MaxInflightProposals set, a proposal
// past the cap is tracked but held in a FIFO queue instead of broadcast —
// a burst can no longer spray sparse insertions across arbitrary indices.
// Queued proposals are admitted as earlier ones resolve.
func (n *Node) ProposeEntryPID(now time.Duration, e types.Entry, pid types.ProposalID) types.ProposalID {
	n.now = now
	if _, exists := n.pending[pid]; exists {
		return pid
	}
	e.PID = pid
	if e.TraceID == 0 {
		e.TraceID = n.rec.MintTrace()
	}
	p := &pendingProposal{
		entry: e,
		size:  types.EntryWireSize(e),
	}
	n.pending[pid] = p
	n.rec.SpanStart(now, pid, n.term, e.TraceID)
	if !n.proposalWindowOpen(p) {
		p.queued = true
		n.proposalQueue = append(n.proposalQueue, pid)
		n.metrics.Inc("fastraft.proposals_queued")
		if n.byteWindowClosed(p) {
			// Attribute the queueing: the byte budget (not the count cap)
			// held this proposal back.
			n.metrics.Inc("fastraft.proposals_byte_queued")
		}
		return pid
	}
	n.admitProposal(p)
	return pid
}

// proposalWindowOpen applies both proposer caps: the message-count window
// (MaxInflightProposals) and the byte window (MaxInflightProposalBytes,
// entries sized at encode time).
func (n *Node) proposalWindowOpen(p *pendingProposal) bool {
	if cap := n.cfg.MaxInflightProposals; cap > 0 && n.inflightProposals >= cap {
		return false
	}
	return !n.byteWindowClosed(p)
}

// byteWindowClosed reports whether the byte budget blocks p. The first
// proposal always broadcasts so a single entry larger than the whole
// budget still makes progress.
func (n *Node) byteWindowClosed(p *pendingProposal) bool {
	cap := n.cfg.MaxInflightProposalBytes
	return cap > 0 && n.inflightProposals > 0 && n.inflightProposalBytes+p.size > cap
}

// admitProposal charges the window, arms the retry deadline and submits.
func (n *Node) admitProposal(p *pendingProposal) {
	n.inflightProposals++
	n.inflightProposalBytes += p.size
	n.armRetry(p)
	n.submit(p)
}

// submit sends a proposal on its way: broadcast on the fast track, or
// through the leader when the fast track is disabled.
func (n *Node) submit(p *pendingProposal) {
	if n.cfg.DisableFastTrack {
		n.forwardProposal(p.entry)
		return
	}
	n.broadcastProposal(p)
}

// forwardProposal is classic Raft's proposer, the one DisableFastTrack
// selects: a leader appends the entry itself, a follower forwards it to the
// leader it knows as a ClientPropose, and with no leader known the retry
// timer submits it again. Nothing is inserted, voted on or tallied.
func (n *Node) forwardProposal(e types.Entry) {
	if n.role == types.RoleLeader {
		n.appendProposal(e)
		return
	}
	if n.leaderID != types.None && n.leaderID != n.cfg.ID {
		n.rec.TraceHop(n.now, e.TraceID, trace.HopForward, n.leaderID, 0)
		n.send(n.leaderID, types.ClientPropose{Entry: e})
	}
}

// onClientPropose takes in a forwarded classic proposal. A site that does
// not lead passes it on toward the leader it knows (never back to the
// sender); with none known it drops it, and the proposer retries.
func (n *Node) onClientPropose(from types.NodeID, m types.ClientPropose) {
	if n.role == types.RoleLeader {
		n.appendProposal(m.Entry)
		return
	}
	if n.leaderID != types.None && n.leaderID != from {
		n.send(n.leaderID, m)
	}
}

// appendProposal is the leader's intake of a classic proposal. A retry of
// an applied session sequence is answered with the cached index; a proposal
// already in the log is answered if committed and otherwise resolves when
// it commits (the payload check keeps a restarted proposer's reused PID
// from matching an old entry); anything else is appended, and replicated
// and committed like any leader entry.
func (n *Node) appendProposal(e types.Entry) {
	if !e.Session.IsZero() {
		if idx, dup := n.sessions.LookupDup(e.Session, e.SessionSeq); dup {
			n.answerProposer(e.PID, idx, true)
			return
		}
	}
	if idx := n.log.FindProposalFor(e.PID, e.Data); idx != 0 {
		if idx <= n.commitIndex {
			n.send(e.PID.Proposer, types.CommitNotify{PID: e.PID, Index: idx, Term: n.log.Term(idx)})
		}
		return
	}
	n.appendLeaderEntry(e)
}

// armRetry sets p's retry deadline one proposal timeout from now and queues
// it. The timeout is one constant and time does not run backwards, so
// deadlines are armed in non-decreasing order and the queue's head is the
// earliest: neither NextDeadline nor retryProposals walks every pending
// proposal. An entry is stale once its proposal resolved or was re-armed.
func (n *Node) armRetry(p *pendingProposal) {
	p.deadline = n.now + n.cfg.ProposalTimeout
	n.retryQueue = append(n.retryQueue, retryAt{pid: p.entry.PID, deadline: p.deadline})
}

// nextRetry returns the earliest retry deadline (0 = none). The queue's
// head is always live: whatever removes a head prunes behind it.
func (n *Node) nextRetry() time.Duration {
	if len(n.retryQueue) == 0 {
		return 0
	}
	return n.retryQueue[0].deadline
}

// pruneRetries drops stale entries off the head of the retry queue.
func (n *Node) pruneRetries() {
	for len(n.retryQueue) > 0 {
		head := n.retryQueue[0]
		if p, ok := n.pending[head.pid]; ok && p.deadline == head.deadline {
			return
		}
		n.retryQueue = n.retryQueue[1:]
	}
	n.retryQueue = nil // release the drained backing array
}

// resolvePending resolves a tracked local proposal, releasing its window
// slot and admitting queued proposals into the freed capacity.
func (n *Node) resolvePending(pid types.ProposalID, idx types.Index) {
	p, ok := n.pending[pid]
	if !ok {
		return
	}
	delete(n.pending, pid)
	n.pruneRetries()
	if !p.queued {
		n.inflightProposals--
		n.inflightProposalBytes -= p.size
	}
	n.rec.SpanEnd(n.now, pid, idx)
	n.resolved = append(n.resolved, types.Resolution{PID: pid, Index: idx})
	n.admitProposals()
}

// admitProposals broadcasts queued proposals while the in-flight window —
// count and bytes — has room, in submission order.
func (n *Node) admitProposals() {
	for len(n.proposalQueue) > 0 {
		pid := n.proposalQueue[0]
		p, ok := n.pending[pid]
		if !ok || !p.queued {
			n.proposalQueue = n.proposalQueue[1:]
			continue // resolved (or already admitted) while queued
		}
		if !n.proposalWindowOpen(p) {
			return
		}
		n.proposalQueue = n.proposalQueue[1:]
		p.queued = false
		n.admitProposal(p)
	}
}

// broadcastProposal picks a fresh index and sends the proposal to all
// members, handling the local insert + vote inline.
//
// The index is the first slot past the leader-approved prefix that this
// proposer's own log does not already hold a different entry for. Anchoring
// at the prefix (rather than the end of the sparse log) keeps concurrent
// proposers converging on decidable indices — self-approved entries above
// the prefix are unsettled, and chasing them lets the index race ahead of
// the decide loop indefinitely. Skipping occupied slots lets proposal
// bursts pipeline instead of colliding with their own predecessors.
func (n *Node) broadcastProposal(p *pendingProposal) {
	cfg := n.Config()
	if cfg.Size() == 0 {
		return // not part of any group yet; retry later
	}
	idx := n.log.LastLeaderIndex() + 1
	if idx <= n.commitIndex {
		idx = n.commitIndex + 1
	}
	for e := n.log.Peek(idx); e != nil && e.PID != p.entry.PID; e = n.log.Peek(idx) {
		idx++
	}
	p.index = idx
	n.rec.SpanStage(n.now, p.entry.PID, trace.StageReplicate, idx)
	msg := types.ProposeEntry{Index: idx, Entry: p.entry}
	var boxed types.Message = msg // one interface allocation for every peer
	for _, peer := range cfg.Members {
		n.send(peer, boxed) // send skips this site itself
	}
	if cfg.Contains(n.cfg.ID) {
		n.handleProposeLocally(msg)
	}
}

func (n *Node) retryProposals(now time.Duration) {
	var due []types.ProposalID
	for d := n.nextRetry(); d != 0 && now >= d; d = n.nextRetry() {
		due = append(due, n.retryQueue[0].pid)
		n.retryQueue = n.retryQueue[1:]
		n.pruneRetries()
	}
	sort.Slice(due, func(i, j int) bool { return due[i].Less(due[j]) })
	for _, pid := range due {
		p := n.pending[pid]
		n.armRetry(p)
		// Re-propose at a fresh index (or to the current leader): the old
		// slot may have been decided for a different entry. De-duplication
		// (leader pid map + commit notifications) keeps the proposal
		// single-commit. Queued proposals have never been submitted; they
		// wait for the window instead.
		n.submit(p)
	}
}

// --- Receiving proposals (follower and leader alike) ----------------------

func (n *Node) onProposeEntry(from types.NodeID, m types.ProposeEntry) {
	n.handleProposeLocally(m)
	_ = from
}

// handleProposeLocally implements the paper's "when follower receives a
// proposed entry" steps, also used by the leader (which is "treated as a
// follower in this scenario").
func (n *Node) handleProposeLocally(m types.ProposeEntry) {
	pid := m.Entry.PID
	// Session duplicate: a retry of a sequence this replica already saw
	// applied — possibly under a different PID (proposer restart) and
	// possibly below the compaction boundary. Answer with the cached
	// response instead of inserting.
	if !m.Entry.Session.IsZero() {
		if idx, dup := n.sessions.LookupDup(m.Entry.Session, m.Entry.SessionSeq); dup {
			n.answerProposer(pid, idx, true)
			return
		}
	}
	// Duplicate handling by proposal ID (same-process retries). The match
	// must agree on the payload: a restarted proposer's reset sequence
	// counter can reuse the PID for a brand-new proposal, which must insert
	// fresh rather than be answered with the old entry's index.
	if existing := n.log.FindProposalFor(pid, m.Entry.Data); existing != 0 {
		if existing <= n.commitIndex {
			// Already committed: notify the proposer directly.
			n.send(pid.Proposer, types.CommitNotify{PID: pid, Index: existing, Term: n.log.Term(existing)})
			return
		}
		// Already inserted but uncommitted: re-vote for its current slot
		// (handles lost vote messages on re-proposals). The vote waits for
		// the insert's record to be durable; voteFor re-reads the slot at
		// release time, so voting for whatever occupies it then is safe.
		n.voteDurable(existing)
		return
	}
	idx := m.Index
	if idx <= n.commitIndex {
		// The slot is burned; the proposer will re-propose. Vote for the
		// occupant anyway so the leader's tally sees us.
		return
	}
	if !n.log.Has(idx) {
		e := m.Entry
		e.Term = n.term
		if err := n.log.InsertSelf(idx, e); err != nil {
			panic(fmt.Sprintf("fastraft %s: insert self: %v", n.cfg.ID, err))
		}
		n.persistEntry(idx)
		n.rec.TraceHop(n.now, e.TraceID, trace.HopReplicate, e.PID.Proposer, idx)
	}
	// A vote is a durability promise — "I hold this entry" — so with group
	// commit it is deferred until the insert's record is on disk. A follower
	// vote rides the gated outbox anyway; the leader's own vote feeding its
	// tally directly is what this defers.
	n.voteDurable(idx)
}

// voteDurable runs voteFor(idx) once every record accepted so far is on
// disk: inline, and without a heap closure, on synchronous storage.
func (n *Node) voteDurable(idx types.Index) {
	if n.gate.Ready() {
		n.voteFor(idx)
		return
	}
	n.acts.After(n.gate, func() { n.voteFor(idx) })
}

// voteFor sends (or locally applies, on the leader) a vote for the current
// occupant of idx.
func (n *Node) voteFor(idx types.Index) {
	e, ok := n.log.Get(idx)
	if !ok {
		return
	}
	if n.role == types.RoleLeader {
		n.recordVote(n.cfg.ID, types.VoteEntry{
			Term: n.term, Index: idx, Entry: e, CommitIndex: n.commitIndex,
		})
		return
	}
	if n.leaderID == types.None {
		return // no leader known; proposal timeout will recover
	}
	n.send(n.leaderID, types.VoteEntry{
		Term: n.term, Index: idx, Entry: e, CommitIndex: n.commitIndex,
	})
}

// --- Leader: vote intake and the decide loop ------------------------------

func (n *Node) onVoteEntry(from types.NodeID, m types.VoteEntry) {
	if m.Term > n.term {
		n.becomeFollower(m.Term, types.None)
		return
	}
	if n.role != types.RoleLeader || m.Term < n.term {
		return
	}
	n.recordVote(from, m)
}

func (n *Node) recordVote(from types.NodeID, m types.VoteEntry) {
	pid := m.Entry.PID
	if idx := n.log.FindProposalFor(pid, m.Entry.Data); idx != 0 && idx <= n.commitIndex {
		// Voted-for proposal already committed elsewhere: tell its
		// proposer, don't tally. Payload-checked so a vote for a fresh
		// proposal under a reused PID still tallies.
		n.send(pid.Proposer, types.CommitNotify{PID: pid, Index: idx, Term: n.log.Term(idx)})
		return
	}
	if m.Index <= n.commitIndex {
		return // stale index
	}
	n.tally.AddVoteAt(m.Index, from, m.Entry, n.now)
	n.rec.TraceHop(n.now, m.Entry.TraceID, trace.HopAck, from, m.Index)
	// Paper: reset the voter's nextIndex from its reported commit index so
	// AppendEntries re-converges its log with the (possibly new) leader.
	// The tracker ignores the reset while a snapshot transfer is pending —
	// re-anchoring below the boundary would restart the stream every vote.
	if from != n.cfg.ID {
		n.progress.Ensure(from, m.CommitIndex+1).ResetNext(m.CommitIndex + 1)
	}
}

// evaluate is the leader's one commit-evaluation step: the classic-track
// commit rule over matchIndex, then the decide loop, then the reads that a
// commit releases. It runs at the end of every entry point through which
// something arrives — Step (a vote or an append ack; the leader's own vote
// on a proposal it receives), SyncDone (the leader's own records became
// durable) — and at the heartbeat tick. Propose* and proposal retries do not
// run it: a leader's own vote completes a quorum only where the leader is
// the whole group, and a group in which nothing ever arrives keeps the
// heartbeat as its commit clock (README "Timing model"). Between ticks it
// may only commit what a quorum has already made certain (see decideLoop);
// the tick additionally decides on a classic quorum of votes. It is never
// entered from inside recordVote or commitTo: a commit that resolves a
// local proposal and admits a queued one only adds that proposal's vote to
// the tally, and the decide loop already running picks it up.
//
// Commits come first so that a decision sees the commit index this
// leader's acks already justify: the fast track applies only at
// commitIndex+1, and deciding before committing would leave every later
// entry one step behind the fast track for as long as load is steady.
func (n *Node) evaluate(tick bool) {
	if n.role != types.RoleLeader {
		return
	}
	commit := n.commitIndex
	for {
		n.advanceClassicCommit()
		if n.role != types.RoleLeader {
			return // committing a config entry removed this leader
		}
		// Entries the decide loop leaves on the classic track commit above
		// only if this leader alone is a quorum; otherwise they wait for
		// acks and the second pass finds nothing to do.
		if !n.decideLoop(tick) {
			break
		}
	}
	if tick || n.commitIndex != commit {
		n.reads.Flush(n.now)
	}
}

// decideLoop is the paper's "periodically run by the leader" procedure,
// split by what may happen when. At a heartbeat tick (tick=true) it is the
// paper's rule: while a classic quorum has voted on the next undecided
// index, decide the most-voted entry — unless a fast quorum may still be
// arriving (fastQuorumArriving): the fast track's timeout is one round trip
// past the index's first vote, checked at the tick. Between ticks the next
// index k is decided only when nothing decided is still uncommitted
// (k = commitIndex+1) and one candidate already holds a fast quorum of
// votes — no later vote can change that outcome, so waiting for the tick
// would add nothing but latency — and it commits on the spot.
//
// In both modes an entry commits immediately on a fast quorum — but, per
// the paper, the fast track applies only when every earlier index has
// already committed — otherwise the entry rides the classic track
// (AppendEntries replication + matchIndex commit). Decisions pipeline ahead
// of the commit point exactly as appends do in classic Raft; the losing
// candidates at each index are re-sequenced at subsequent indices (the
// leader's free choice) so their proposers don't stall.
//
// It reports whether it decided entries that it left uncommitted.
func (n *Node) decideLoop(tick bool) bool {
	head := n.log.LastLeaderIndex()
	cfg := n.Config()
	classicQ := quorum.ClassicSize(cfg.Size())
	fastQ := quorum.FastSize(cfg.Size())
	for {
		k := n.log.LastLeaderIndex() + 1
		var fast types.Entry
		if tick {
			if n.tally.Voters(k, cfg) < classicQ {
				break
			}
			if n.fastQuorumArriving(k, cfg, fastQ) {
				n.metrics.Inc("fastraft.decisions_deferred")
				break
			}
		} else if n.cfg.DisableFastTrack || k != n.commitIndex+1 {
			break
		} else if e, ok := n.tally.FastCandidate(k, cfg, fastQ); ok {
			fast = e
		} else {
			break // where most evaluations end, having allocated nothing
		}
		skip := n.skipDecidedAt(k)
		if !tick && skip(fast) {
			break
		}
		d, ok := n.tally.Decide(k, cfg, skip)
		if tick {
			n.metrics.Inc("fastraft.decisions_on_tick")
		} else {
			n.metrics.Inc("fastraft.decisions_on_arrival")
		}
		if !ok {
			// Every candidate was a duplicate of an already decided
			// proposal; fill the slot with a no-op to keep the log dense.
			n.appendLeaderEntryAt(k, types.Entry{Kind: types.KindNoop})
			continue
		}
		n.appendLeaderEntryAt(k, d.Winner)
		n.rec.SpanStage(n.now, d.Winner.PID, trace.StageQuorum, k)
		n.tally.NullProposal(d.Winner, k)
		for _, v := range d.WinnerVoters {
			n.progress.Ensure(v, n.commitIndex+1).RecordFastMatch(k)
		}
		// Re-sequence losers on the classic track.
		for _, loser := range d.Losers {
			if !loser.PID.IsZero() && n.proposalDecided(loser.PID) {
				continue
			}
			n.appendLeaderEntry(loser)
			n.tally.NullProposal(loser, 0)
		}
		if !n.cfg.DisableFastTrack &&
			k == n.commitIndex+1 &&
			n.log.Term(k) == n.term &&
			n.progress.FastMatchQuorum(cfg, k, fastQ) {
			n.metrics.Add("fastraft.commits_fast", uint64(k-n.commitIndex))
			n.commitTo(k)
			if n.role != types.RoleLeader {
				return false // committing a config entry removed this leader
			}
			n.tally.Clear(k)
			cfg = n.Config()
			classicQ = quorum.ClassicSize(cfg.Size())
			fastQ = quorum.FastSize(cfg.Size())
		}
	}
	return n.log.LastLeaderIndex() > head && n.log.LastLeaderIndex() > n.commitIndex
}

// fastQuorumArriving reports whether a tick should leave index k to the
// fast track a while longer: some candidate can still reach a fast quorum
// from the members that have not voted at k, and less than one smoothed
// round trip to the slowest of them has passed since k's first vote. A
// split vote, a member silent for longer than its round trip and an
// unknown round trip (no sample yet) all decide at the tick as before.
// Holding a decision back is always safe — the leader chooses when to
// decide, never what — and it is held at most one round trip plus one
// heartbeat.
func (n *Node) fastQuorumArriving(k types.Index, cfg types.Config, fastQ int) bool {
	if n.cfg.DisableFastTrack || !n.tally.FastPossible(k, cfg, fastQ) {
		return false
	}
	var rtt time.Duration
	for _, m := range cfg.Members {
		if p := n.progress.Get(m); p != nil && !n.tally.Voted(k, m) {
			rtt = max(rtt, p.RTT())
		}
	}
	return rtt > 0 && n.now < n.tally.FirstVote(k)+rtt
}

// appendLeaderEntry appends e at the end of the leader-approved prefix.
func (n *Node) appendLeaderEntry(e types.Entry) {
	n.appendLeaderEntryAt(n.log.LastLeaderIndex()+1, e)
}

// appendLeaderEntryAt stamps e with the current term and leader-approves it
// at idx (which must extend the prefix by exactly one; any self-approved
// occupant is replaced).
func (n *Node) appendLeaderEntryAt(idx types.Index, e types.Entry) {
	e.Term = n.term
	if err := n.log.AppendLeader(idx, e); err != nil {
		panic(fmt.Sprintf("fastraft %s: append leader: %v", n.cfg.ID, err))
	}
	n.persistEntry(idx)
	n.appendedAt[idx] = n.now
	n.rec.SpanStage(n.now, e.PID, trace.StageAppend, idx)
	if e.TraceID != 0 {
		n.rec.TraceHop(n.now, e.TraceID, trace.HopAppend, "", idx)
		n.rec.TraceAppendIndex(idx, e.TraceID)
	}
	n.recordSelfDurable()
	if e.Kind == types.KindConfig {
		n.onConfigChangedAsLeader()
	}
}

// --- Leader tick -----------------------------------------------------------

// leaderTick performs all periodic leader duties in the paper's order:
// commit/decide evaluation, membership processing, then AppendEntries
// dispatch. Evaluation also runs whenever a vote or an ack arrives (see
// evaluate); everything else here stays on the timer: dispatch, heartbeats,
// read-confirmation rounds, silent-leave accounting and classic-quorum
// decisions. Any phase can demote the node (committing a configuration
// that excludes it), so leadership is re-checked between phases.
func (n *Node) leaderTick() {
	n.evaluate(true)
	if n.role != types.RoleLeader {
		return
	}
	n.maybeSessionClock()
	n.processMembership()
	if n.role != types.RoleLeader {
		return
	}
	n.broadcastAppend()
}

// advanceClassicCommit applies the classic-track commit rule over
// matchIndex.
func (n *Node) advanceClassicCommit() {
	cfg := n.Config()
	classicQ := quorum.ClassicSize(cfg.Size())
	for k := n.commitIndex + 1; k <= n.log.LastLeaderIndex(); k++ {
		if n.log.Term(k) != n.term {
			// Entries from earlier terms commit transitively once a
			// current-term entry commits.
			continue
		}
		if !n.progress.MatchQuorum(cfg, k, classicQ) {
			break
		}
		n.metrics.Add("fastraft.commits_classic", uint64(k-n.commitIndex))
		n.commitTo(k)
		if n.role != types.RoleLeader {
			return // committing a config entry removed this leader
		}
		n.tally.Clear(k)
		// A committed configuration entry changes quorum sizes from here
		// on.
		cfg = n.Config()
		classicQ = quorum.ClassicSize(cfg.Size())
	}
}

func (n *Node) commitTo(k types.Index) {
	if k > n.log.LastLeaderIndex() {
		panic(fmt.Sprintf("fastraft %s: commit %d beyond leader prefix %d",
			n.cfg.ID, k, n.log.LastLeaderIndex()))
	}
	for i := n.commitIndex + 1; i <= k; i++ {
		e, ok := n.log.Get(i)
		if !ok {
			panic(fmt.Sprintf("fastraft %s: commit hole at %d", n.cfg.ID, i))
		}
		if at, ok := n.appendedAt[i]; ok {
			n.commitHist.Observe(n.now - at)
			delete(n.appendedAt, i)
		}
		n.rec.SpanStage(n.now, e.PID, trace.StageCommit, i)
		if n.cfg.Layer != types.LayerGlobal {
			// A C-Raft global instance's commit is provisional until the
			// delta externalizing it commits in the cluster's local log: a
			// local-leader crash can roll the global member back behind
			// this point. The authoritative global commit stream is the
			// replay (craft records it per site); auditing these would
			// flag that legitimate rollback as a committed-prefix breach.
			n.rec.CommitEntry(n.now, n.term, e)
		}
		if n.applySessionCommit(e) {
			// Session duplicate (or expired-session proposal): the slot
			// commits but the entry is withheld from the state machine;
			// the proposer was answered with the cached response.
			n.commitIndex = i
			continue
		}
		n.committed = append(n.committed, e)
		n.observeCommitted(e)
		if n.role == types.RoleLeader {
			if !e.PID.IsZero() && e.PID.Proposer != n.cfg.ID {
				n.send(e.PID.Proposer, types.CommitNotify{PID: e.PID, Index: i, Term: e.Term})
			}
			if e.Kind == types.KindConfig {
				n.onConfigCommittedAsLeader(e)
			}
		}
	}
	n.commitIndex = k
	n.rec.TraceCommitted(k)
}

// observeCommitted resolves local proposals and reacts to configuration
// entries that affect this site.
func (n *Node) observeCommitted(e types.Entry) {
	if e.PID.Proposer == n.cfg.ID {
		n.resolvePending(e.PID, e.Index)
	}
}

// --- Replication (AppendEntries) -------------------------------------------

// logView exposes the leader-approved prefix to the shared dispatch layer:
// Fast Raft replicates only decided entries (with the fast track off, the
// classic proposer's log holds nothing else).
func (n *Node) logView() replica.LogView {
	return replica.LogView{
		LastIndex:     n.log.LastLeaderIndex,
		Term:          n.log.Term,
		Entries:       n.log.AppendLeaderRange,
		SnapshotIndex: n.log.SnapshotIndex,
	}
}

// round is the per-broadcast-round context stamped onto dispatched
// messages. Paper: nextIndex for fresh peers starts at the leader's commit
// index + 1.
func (n *Node) round() replica.Round {
	return replica.Round{
		Term:     n.term,
		Leader:   n.cfg.ID,
		Commit:   n.commitIndex,
		Seq:      n.aeRound,
		NextHint: n.commitIndex + 1,
		Now:      n.now,
	}
}

// broadcastAppend runs one heartbeat round: it numbers the round, seals the
// pending ReadIndex batch onto it, does the silent-leave accounting and
// dispatches the round's traffic to every peer (dispatchAppends). Every
// peer is sent something, so silent-leave accounting keeps working.
func (n *Node) broadcastAppend() {
	cfg := n.Config()
	n.aeRound++
	rc := n.round()
	if n.readMgr != nil {
		// Seal the pending ReadIndex batch onto this round; a quorum of
		// acks echoing the ID confirms every read in it at once.
		rc.ReadCtx = n.readMgr.StampRound(n.now)
	}
	// Silent-leave accounting: count rounds a voting member has left
	// unanswered.
	for _, peer := range cfg.Members {
		if peer == n.cfg.ID {
			continue
		}
		if n.responded[peer] {
			n.missed[peer] = 0
		} else {
			n.missed[peer]++
		}
		n.responded[peer] = false
	}
	n.dispatchAppends(rc)
	n.lastBroadcastHead = n.log.LastLeaderIndex()
}

// SendAppends sends the leader's regular AppendEntries traffic to every
// peer now, between heartbeats: the messages a tick would send, handled
// identically by followers, but stamped with the current round, no
// ReadIndex batch and no silent-leave accounting. C-Raft calls it when a
// local commit externalizes a global commit, so the cluster's other sites
// commit it without waiting for the heartbeat. A no-op unless leading.
func (n *Node) SendAppends() {
	if n.role != types.RoleLeader {
		return
	}
	n.dispatchAppends(n.round())
}

// dispatchAppends sends each peer its traffic for round rc through the
// shared replication engine: snapshot chunks while a peer is behind the
// compacted prefix, leader-approved entries while the inflight window
// allows, a bare heartbeat otherwise (see replica.Tracker.AppendMessage).
func (n *Node) dispatchAppends(rc replica.Round) {
	lv := n.logView()
	for _, peer := range n.Config().Members {
		if peer != n.cfg.ID {
			n.dispatchAppend(peer, lv, rc)
		}
	}
	for _, peer := range sortedKeys(n.nonvoting) {
		n.dispatchAppend(peer, lv, rc)
	}
}

// dispatchAppend sends one peer its traffic for round rc.
func (n *Node) dispatchAppend(peer types.NodeID, lv replica.LogView, rc replica.Round) {
	m, snapshot := n.progress.AppendMessage(peer, lv, rc)
	if snapshot {
		// The entries this peer needs are compacted away; stream the
		// snapshot instead. While the install is pending nothing is
		// re-sent — the heartbeat keeps the peer responding.
		if !n.sendSnapshotTo(peer) {
			n.send(peer, n.progress.HeartbeatMessage(peer, lv, rc))
		}
		return
	}
	if n.rec != nil && len(m.Entries) > 0 {
		n.rec.AppendDispatch(n.now, m.Term, peer, m.PrevLogIndex, len(m.Entries), m.Round)
	}
	n.send(peer, m)
}

func (n *Node) onAppendEntries(from types.NodeID, m types.AppendEntries) {
	if m.Term > n.term || (m.Term == n.term && n.role != types.RoleFollower) {
		n.becomeFollower(m.Term, m.LeaderID)
	}
	resp := types.AppendEntriesResp{
		Term: n.term, Round: m.Round, LastLogIndex: n.log.LastLeaderIndex(),
	}
	// Report any partially buffered snapshot stream so a new leader can
	// continue it from our position instead of restarting at byte 0.
	resp.PendingBoundary, resp.PendingOffset = n.snapRecv.Pending()
	if m.Term < n.term {
		n.send(from, resp)
		return
	}
	// Echo the read-batch ID: a quorum of echoes confirms the leader's
	// pending reads without any log write.
	resp.ReadCtx = m.ReadCtx
	n.leaderID = m.LeaderID
	n.lastLeaderContact = n.now
	n.lonelyElections = 0
	n.resetElectionTimer()
	// Entries at or below our snapshot boundary are committed and match the
	// leader by construction; the consistency check applies only above it.
	if m.PrevLogIndex >= n.log.SnapshotIndex() && m.PrevLogIndex > 0 &&
		(m.PrevLogIndex > n.log.LastLeaderIndex() || n.log.Term(m.PrevLogIndex) != m.PrevLogTerm) {
		// Consistency check failed; hint the leader with our prefix top.
		n.send(from, resp)
		return
	}
	for _, e := range m.Entries {
		if e.Index <= n.log.SnapshotIndex() {
			continue // compacted: already committed here
		}
		n.applyLeaderEntry(e)
	}
	// Commit up to Raft's "index of last new entry", not the top of our
	// leader-approved prefix: this message vouches for our log through match
	// only, and a prefix beyond it may be a deposed leader's suffix that the
	// sender's term has since replaced.
	match := m.PrevLogIndex + types.Index(len(m.Entries))
	if k := min(m.LeaderCommit, match); k > n.commitIndex {
		n.commitTo(k)
		// Local commit advanced: held follower-local reads whose
		// confirmed index is now covered can be served.
		n.reads.Flush(n.now)
	}
	resp.Success = true
	resp.MatchIndex = match
	resp.LastLogIndex = n.log.LastLeaderIndex()
	n.send(from, resp)
	n.reactToConfig()
	n.maybeCompact()
}

// applyLeaderEntry installs one leader-approved entry from AppendEntries,
// overwriting conflicting slots (Fast Raft never truncates: self-approved
// entries at other indices must survive).
func (n *Node) applyLeaderEntry(e types.Entry) {
	idx := e.Index
	if existing := n.log.Peek(idx); existing != nil {
		// The in-place fast paths require PID identity, not just
		// SameProposal: a session proposal retried under a different PID is
		// the same value, but keeping the local twin would leave replicas
		// disagreeing on which PID occupies the slot.
		if existing.Approval == types.ApprovedLeader && existing.Term == e.Term &&
			existing.PID == e.PID && existing.SameProposal(e) {
			return // already applied
		}
		if existing.Approval == types.ApprovedSelf && existing.Term == e.Term &&
			existing.PID == e.PID && existing.SameProposal(e) && idx == n.log.LastLeaderIndex()+1 {
			// Same entry we self-inserted: promote in place.
			if err := n.log.PromoteToLeader(idx, e.Term); err != nil {
				panic(fmt.Sprintf("fastraft %s: promote: %v", n.cfg.ID, err))
			}
			n.persistEntry(idx)
			return
		}
		if idx <= n.commitIndex {
			// Never overwrite a committed slot; the leader cannot be
			// sending a conflicting committed entry unless the run is
			// already unsafe — surface it.
			if !existing.SameProposal(e) {
				panic(fmt.Sprintf("fastraft %s: leader overwrote committed index %d", n.cfg.ID, idx))
			}
			return
		}
		if err := n.log.OverwriteLeader(idx, e); err != nil {
			panic(fmt.Sprintf("fastraft %s: overwrite: %v", n.cfg.ID, err))
		}
		n.persistEntry(idx)
		// What followed the replaced entry is the deposed leader's suffix.
		// Left leader-approved it would make this site look more up to date
		// in elections than it is (and vote for a candidate missing idx), so
		// it stays only as self-approved insertions.
		lo, hi := n.log.DemoteAbove(idx)
		for i := lo; i <= hi; i++ {
			n.persistEntry(i)
		}
		n.rec.TraceHop(n.now, e.TraceID, trace.HopReplicate, n.leaderID, idx)
		return
	}
	if err := n.log.AppendLeader(idx, e); err != nil {
		panic(fmt.Sprintf("fastraft %s: follower append: %v", n.cfg.ID, err))
	}
	n.persistEntry(idx)
	n.rec.TraceHop(n.now, e.TraceID, trace.HopReplicate, n.leaderID, idx)
}

func (n *Node) onAppendEntriesResp(from types.NodeID, m types.AppendEntriesResp) {
	if m.Term > n.term {
		n.becomeFollower(m.Term, types.None)
		return
	}
	if n.role != types.RoleLeader || m.Term < n.term {
		return
	}
	n.responded[from] = true
	n.missed[from] = 0
	pr := n.progress.Ensure(from, n.commitIndex+1)
	if !m.Success {
		// Back off; the peer's last-leader-index hint converges quickly.
		pr.RejectAppend(m.LastLogIndex)
		n.rec.AppendReject(n.now, m.Term, from, m.LastLogIndex)
	} else {
		// Record only acks that advance the match (idle heartbeat echoes
		// carry no forensic signal and would churn the ring).
		if n.rec != nil && m.MatchIndex > pr.Match() {
			n.rec.AppendAck(n.now, m.Term, from, m.MatchIndex, m.Round)
		}
		n.rec.TraceAck(n.now, from, m.MatchIndex)
		pr.AckAppend(m.MatchIndex, n.now)
	}
	// Any same-term response confirms leadership at the round's dispatch
	// time — the consistency-check outcome is irrelevant to reads.
	if n.readMgr != nil && m.ReadCtx != 0 {
		n.readMgr.ObserveAck(from, m.ReadCtx, n.now)
		n.reads.Flush(n.now)
	}
	// Stream continuation: the peer holds a partial snapshot stream at our
	// boundary (from a predecessor leader); seed the transfer from its
	// buffered offset so acked chunks are never re-sent from byte 0.
	if b := m.PendingBoundary; b != 0 && b == n.log.SnapshotIndex() &&
		m.PendingOffset > 0 && pr.Match() < b {
		n.progress.SeedSnapshot(from, b, m.PendingOffset, n.now)
		n.rec.SnapResume(n.now, from, b, m.PendingOffset)
	}
}

// onCommitNotify is how a remote proposer learns that its proposal
// committed. Where this site already holds the entry it also commits it, on
// receipt (commitNotified); otherwise only the proposal resolves and the
// site's commit index follows with the leader's next AppendEntries.
func (n *Node) onCommitNotify(m types.CommitNotify) {
	if n.commitNotified(m) {
		return // commitTo stamped the stage and resolved the proposal
	}
	n.rec.SpanStage(n.now, m.PID, trace.StageCommit, m.Index)
	n.resolvePending(m.PID, m.Index)
}

// commitNotified commits index k = m.Index on the strength of the
// notification alone and reports whether it did.
//
// Safety: a commit is permanent and every replica's committed prefix is the
// same log, so "(k, PID, term) is committed" + "I have committed through
// k-1" + "my slot k holds that proposal" ⇒ my log through k is the committed
// log. Nothing in that needs the sender's identity or a fresh term, which is
// why a late or duplicated notification is harmless and why the message
// carries no more than the entry's term. A PID names an entry only within
// one proposer lifetime, so "holds that proposal" means the PID and the
// payload of the proposal this lifetime still has pending.
//
// Everything else — a gap before k, something else in the slot, a
// leader-approved slot of another term, Term 0 (the sender does not name the
// entry), receipt on a leader (which commits by its own rules) — is left to
// the AppendEntries path. An early notification is counted, not stashed:
// fastraft.notify_ahead says whether a stash would be worth building.
func (n *Node) commitNotified(m types.CommitNotify) bool {
	k := m.Index
	p := n.pending[m.PID]
	if m.Term == 0 || p == nil || n.role == types.RoleLeader || k <= n.commitIndex {
		return false
	}
	if k != n.commitIndex+1 {
		n.metrics.Inc("fastraft.notify_ahead")
		return false
	}
	e := n.log.Peek(k)
	if e == nil || e.PID != m.PID || !bytes.Equal(e.Data, p.entry.Data) ||
		(e.Approval == types.ApprovedLeader && e.Term != m.Term) {
		n.metrics.Inc("fastraft.notify_mismatch")
		return false
	}
	if e.Approval == types.ApprovedSelf {
		// Keep the log the shape AppendEntries keeps it: terms never fall
		// along the leader-approved prefix (a late notification from before
		// the term that approved k-1) and never exceed this site's own (one
		// from a term it has yet to hear of).
		if m.Term < n.log.LastLeaderTerm() || m.Term > n.term {
			return false
		}
		// k-1 is committed, hence leader-approved: k extends the prefix.
		if err := n.log.PromoteToLeader(k, m.Term); err != nil {
			panic(fmt.Sprintf("fastraft %s: promote notified: %v", n.cfg.ID, err))
		}
		n.persistEntry(k)
	}
	n.metrics.Inc("fastraft.commits_notified")
	n.commitTo(k)
	n.reads.Flush(n.now)
	return true
}
