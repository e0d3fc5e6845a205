package types

import (
	"fmt"
	"slices"
)

// Layer distinguishes C-Raft's two consensus levels on the wire. Plain Fast
// Raft and classic Raft always use LayerLocal.
type Layer uint8

const (
	// LayerLocal is intra-cluster (or single-cluster) consensus traffic.
	LayerLocal Layer = iota + 1
	// LayerGlobal is inter-cluster consensus traffic between cluster
	// leaders.
	LayerGlobal
)

// String names the layer.
func (l Layer) String() string {
	switch l {
	case LayerLocal:
		return "local"
	case LayerGlobal:
		return "global"
	default:
		return fmt.Sprintf("layer(%d)", uint8(l))
	}
}

// Message is implemented by every protocol message. The concrete type set
// is closed; transports switch on it for encoding.
type Message interface {
	// MsgName returns a short stable name used in traces and the codec.
	MsgName() string
}

// Envelope wraps a message with routing information.
type Envelope struct {
	// From is the sender.
	From NodeID
	// To is the destination site (or cluster ID at LayerGlobal).
	To NodeID
	// Layer selects the consensus level the message belongs to.
	Layer Layer
	// Group names the consensus group the message belongs to in a
	// multi-group (sharded) process; empty for flat single-group
	// deployments.
	Group GroupID
	// Msg is the payload.
	Msg Message
}

// String renders the envelope for traces.
func (e Envelope) String() string {
	if e.Group != "" {
		return fmt.Sprintf("%s->%s %s/%s %s", e.From, e.To, e.Layer, e.Group, e.Msg.MsgName())
	}
	return fmt.Sprintf("%s->%s %s %s", e.From, e.To, e.Layer, e.Msg.MsgName())
}

// ProposeEntry is a Fast Raft proposer's broadcast: "insert Entry at Index".
// Every site that receives it inserts the entry if the slot is free and
// votes to the leader with the slot's occupant.
type ProposeEntry struct {
	// Index is the log position the proposer chose.
	Index Index
	// Entry carries the proposed value (PID, Kind, Data). Term and Approval
	// are assigned by the receiving site.
	Entry Entry
}

// MsgName implements Message.
func (ProposeEntry) MsgName() string { return "ProposeEntry" }

// VoteEntry is a Fast Raft follower's vote to the leader after processing a
// ProposeEntry: it reports the occupant of the slot (which may differ from
// the proposed entry) plus the follower's commitIndex.
type VoteEntry struct {
	// Term is the voter's current term; stale votes are ignored.
	Term Term
	// Index is the log slot voted on.
	Index Index
	// Entry is the voter's log[Index] at vote time.
	Entry Entry
	// CommitIndex is the voter's commit index; the leader uses it to reset
	// nextIndex so the voter's log converges with the leader's.
	CommitIndex Index
}

// MsgName implements Message.
func (VoteEntry) MsgName() string { return "VoteEntry" }

// ClientPropose carries a proposal to the leader in classic Raft (where
// proposers do not broadcast). The leader assigns the index.
type ClientPropose struct {
	// Entry carries PID, Kind and Data; Index/Term/Approval are unset.
	Entry Entry
}

// MsgName implements Message.
func (ClientPropose) MsgName() string { return "ClientPropose" }

// AppendEntries is the leader's replication/heartbeat message.
type AppendEntries struct {
	// Term is the leader's term.
	Term Term
	// LeaderID lets followers redirect proposers and joiners.
	LeaderID NodeID
	// PrevLogIndex/PrevLogTerm identify the entry immediately preceding
	// Entries for the consistency check.
	PrevLogIndex Index
	// PrevLogTerm is the term of the entry at PrevLogIndex.
	PrevLogTerm Term
	// Entries are the leader-approved entries to insert (may be empty for
	// pure heartbeats).
	Entries []Entry
	// LeaderCommit is the leader's commitIndex.
	LeaderCommit Index
	// Round numbers the heartbeat round, used by the leader to match
	// responses when detecting silent leaves.
	Round uint64
	// ReadCtx is the read-batch ID of the broadcast round (0 = none): every
	// ReadIndex read registered before the round was dispatched is batched
	// under it, and a quorum of responses echoing a ReadCtx at or above it
	// confirms the whole batch with this single heartbeat exchange.
	ReadCtx uint64
}

// MsgName implements Message.
func (AppendEntries) MsgName() string { return "AppendEntries" }

// AppendEntriesResp acknowledges an AppendEntries message.
type AppendEntriesResp struct {
	// Term is the responder's current term, for the leader to update itself.
	Term Term
	// Success is true if the consistency check passed and entries were
	// applied.
	Success bool
	// MatchIndex is the highest leader-approved index known replicated at
	// the responder (valid when Success).
	MatchIndex Index
	// LastLogIndex hints the responder's last log index so a leader can
	// back off nextIndex quickly on failure.
	LastLogIndex Index
	// PendingBoundary/PendingOffset report a partially received snapshot
	// stream (zero when none): the boundary of the stream buffered in the
	// responder's reassembler and the contiguous byte count it holds. A new
	// leader whose snapshot matches the boundary seeds its transfer cursor
	// from the offset, continuing its predecessor's stream instead of
	// restarting from byte 0.
	PendingBoundary Index
	// PendingOffset is the contiguous byte count buffered for
	// PendingBoundary.
	PendingOffset uint64
	// Round echoes AppendEntries.Round.
	Round uint64
	// ReadCtx echoes AppendEntries.ReadCtx, acknowledging every read batch
	// at or below it.
	ReadCtx uint64
}

// MsgName implements Message.
func (AppendEntriesResp) MsgName() string { return "AppendEntriesResp" }

// RequestVote solicits election votes. In Fast Raft the candidate's log
// position counts only leader-approved entries.
type RequestVote struct {
	// Term is the candidate's (already incremented) term.
	Term Term
	// CandidateID is the candidate requesting the vote.
	CandidateID NodeID
	// LastLogIndex is the candidate's last (leader-approved, for Fast Raft)
	// log index.
	LastLogIndex Index
	// LastLogTerm is the term of that entry.
	LastLogTerm Term
	// Transfer marks an election started on a leader's TimeoutNow order
	// (leadership transfer). Voters skip the election-stickiness check for
	// transfer elections: the old leader is known-live and stepping aside
	// deliberately, so refusing "a fresh leader exists" votes would make
	// every transfer time out.
	Transfer bool
}

// MsgName implements Message.
func (RequestVote) MsgName() string { return "RequestVote" }

// RequestVoteResp answers a RequestVote. In Fast Raft a granted vote also
// carries the voter's self-approved entries for the recovery algorithm.
type RequestVoteResp struct {
	// Term is the responder's current term.
	Term Term
	// Granted is true if the vote was granted.
	Granted bool
	// SelfApproved are all self-approved entries in the voter's log
	// (Fast Raft recovery input; empty in classic Raft).
	SelfApproved []Entry
}

// MsgName implements Message.
func (RequestVoteResp) MsgName() string { return "RequestVoteResp" }

// CommitNotify tells a proposer that its proposal committed. It is sent by
// the leader on commit, and by any site that observes a duplicate proposal
// of an already committed entry.
type CommitNotify struct {
	// PID identifies the proposal.
	PID ProposalID
	// Index is the log position at which the proposal committed.
	Index Index
	// Term is the term of the committed entry at Index, which lets a Fast
	// Raft proposer that already holds the entry commit it on receipt
	// (fastraft.commitNotified). Zero means "notification only": the sender
	// does not name the entry at Index (a session duplicate answered with the
	// original's index, a compacted entry).
	Term Term
}

// MsgName implements Message.
func (CommitNotify) MsgName() string { return "CommitNotify" }

// JoinRequest asks to join the configuration. At the C-Raft global layer it
// asks to form a new cluster.
type JoinRequest struct {
	// Site is the joining site (or new cluster ID at LayerGlobal).
	Site NodeID
}

// MsgName implements Message.
func (JoinRequest) MsgName() string { return "JoinRequest" }

// JoinRedirect points a joiner at the current leader.
type JoinRedirect struct {
	// Leader is the current leader known to the responder (None if
	// unknown).
	Leader NodeID
}

// MsgName implements Message.
func (JoinRedirect) MsgName() string { return "JoinRedirect" }

// JoinAccepted tells a joiner that the configuration including it has
// committed and it is now a voting member.
type JoinAccepted struct {
	// ConfigIndex is the log index of the committed configuration entry.
	ConfigIndex Index
}

// MsgName implements Message.
func (JoinAccepted) MsgName() string { return "JoinAccepted" }

// LeaveRequest announces that a site wishes to leave the configuration.
type LeaveRequest struct {
	// Site is the leaving site.
	Site NodeID
}

// MsgName implements Message.
func (LeaveRequest) MsgName() string { return "LeaveRequest" }

// InstallSnapshot is the leader's snapshot transfer: when a follower's
// replication position falls below the leader's compacted log prefix, the
// leader ships its latest snapshot instead of AppendEntries. The follower
// replaces its state machine and log prefix with the snapshot and resumes
// replication from the boundary + 1.
//
// Two transfer modes share this message. In whole-image mode (chunking
// disabled) Snapshot carries the complete image and Done is true. In
// chunked mode (MaxSnapshotChunk set) Snapshot is zero and each message
// carries one Data slice of the encoded snapshot (EncodeSnapshot output,
// sessions section included) at Offset; Done marks the final chunk. Boundary identifies the stream in both
// modes, so a follower reassembling chunks can discard a superseded
// stream when the leader compacts again mid-transfer.
type InstallSnapshot struct {
	// Term is the leader's term.
	Term Term
	// LeaderID lets followers redirect proposers and joiners.
	LeaderID NodeID
	// Snapshot is the complete image in whole-image mode; zero when chunked.
	Snapshot Snapshot
	// Boundary is the snapshot's last covered log index (stream identity).
	Boundary Index
	// Offset is the byte offset of Data within the encoded snapshot.
	Offset uint64
	// Data is one chunk of the encoded snapshot (nil in whole-image mode).
	Data []byte
	// Check is the IEEE CRC-32 of the entire encoded snapshot the chunks
	// slice (chunked mode only). It names the stream's content: a follower
	// continues accumulating chunks for (Boundary, Check) across leader
	// changes — successor leaders of the same boundary encode byte-identical
	// snapshots — and restarts cleanly if a sender's encoding diverges.
	Check uint32
	// Done marks the final chunk (always true in whole-image mode).
	Done bool
	// Trace is the stream's sampled trace context (0 = unsampled): minted
	// when the leader opens the stream, constant across its chunks, so a
	// follower's catch-up-by-snapshot shows up in the cross-node trace
	// tree.
	Trace uint64
	// Round numbers the heartbeat round, matching AppendEntries.Round for
	// silent-leave accounting.
	Round uint64
}

// MsgName implements Message.
func (InstallSnapshot) MsgName() string { return "InstallSnapshot" }

// InstallSnapshotReply acknowledges an InstallSnapshot message.
type InstallSnapshotReply struct {
	// Term is the responder's current term.
	Term Term
	// LastIndex is the responder's resulting snapshot/commit boundary: the
	// leader advances its match/next view from it, and a LastIndex at or
	// beyond the pending boundary completes the transfer.
	LastIndex Index
	// Boundary echoes the stream being acknowledged (chunked mode).
	Boundary Index
	// Offset is the contiguous byte count the responder has buffered for
	// Boundary; the leader resumes transmission from here after a timeout
	// and never re-sends acknowledged chunks.
	Offset uint64
	// Round echoes InstallSnapshot.Round.
	Round uint64
}

// MsgName implements Message.
func (InstallSnapshotReply) MsgName() string { return "InstallSnapshotReply" }

// ReadSpec names one forwarded read inside a ReadRequest batch.
type ReadSpec struct {
	// ID is the origin's read token, echoed in the reply.
	ID uint64
	// Consistency is the requested read mode (stale reads are served
	// locally and never forwarded).
	Consistency ReadConsistency
	// Trace is the read's sampled trace context (0 = unsampled), minted at
	// the origin and echoed back in the ReadResult.
	Trace uint64
}

// ReadRequest forwards linearizable (or lease) reads from the node that
// received them to the leader, which runs them through its read path and
// answers with a ReadReply. The origin coalesces every read queued while a
// round-trip is in flight into the next request, so one message covers a
// whole batch. Requests write nothing to the log; lost requests or replies
// are re-sent under the same IDs (duplicates are coalesced leader-side).
type ReadRequest struct {
	// Reads are the forwarded reads, oldest first.
	Reads []ReadSpec
}

// MsgName implements Message.
func (ReadRequest) MsgName() string { return "ReadRequest" }

// ReadResult resolves one forwarded read inside a ReadReply batch.
type ReadResult struct {
	// ID echoes the ReadSpec.ID.
	ID uint64
	// Index is the linearization index (valid when OK).
	Index Index
	// OK is false when the responder could not serve the read (not leader,
	// or deposed while the read was pending); the origin retries.
	OK bool
	// Trace echoes the ReadSpec.Trace (0 = unsampled).
	Trace uint64
}

// ReadReply answers forwarded reads once the leader's read path released
// them. Reads from one origin that resolve together are batched into one
// reply.
type ReadReply struct {
	// Results resolve the forwarded reads (not necessarily all of one
	// request: ReadIndex reads in a batch may resolve across rounds).
	Results []ReadResult
}

// MsgName implements Message.
func (ReadReply) MsgName() string { return "ReadReply" }

// TimeoutNow is the leadership-transfer order: a leader that wants to hand
// off sends it to the chosen successor, which immediately starts an election
// for the next term with RequestVote.Transfer set (so voters skip election
// stickiness). Lost orders are harmless — the old leader keeps leading.
type TimeoutNow struct {
	// Term is the sender's term; orders from stale leaders are ignored.
	Term Term
}

// MsgName implements Message.
func (TimeoutNow) MsgName() string { return "TimeoutNow" }

// ShardFrame is one group's message inside a ShardBatch: the payload of a
// single-group envelope minus the From/To routing, which the outer batch
// envelope carries once for every frame.
type ShardFrame struct {
	// Group names the consensus group the frame belongs to.
	Group GroupID
	// Layer selects the consensus level within the group.
	Layer Layer
	// Msg is the payload.
	Msg Message
}

// ShardBatch coalesces the outbound frames of many consensus groups headed
// to the same destination process into one datagram: a shard manager drains
// every group's outbox per tick window and packs all frames sharing a
// destination under one envelope. Batches never nest.
type ShardBatch struct {
	// Frames are the coalesced messages, in per-group send order.
	Frames []ShardFrame
}

// MsgName implements Message.
func (ShardBatch) MsgName() string { return "ShardBatch" }

// Compile-time check that all message types satisfy Message.
var (
	_ Message = ProposeEntry{}
	_ Message = VoteEntry{}
	_ Message = ClientPropose{}
	_ Message = AppendEntries{}
	_ Message = AppendEntriesResp{}
	_ Message = RequestVote{}
	_ Message = RequestVoteResp{}
	_ Message = CommitNotify{}
	_ Message = JoinRequest{}
	_ Message = JoinRedirect{}
	_ Message = JoinAccepted{}
	_ Message = LeaveRequest{}
	_ Message = InstallSnapshot{}
	_ Message = InstallSnapshotReply{}
	_ Message = ReadRequest{}
	_ Message = ReadReply{}
	_ Message = TimeoutNow{}
	_ Message = ShardBatch{}
)

// CloneMessage copies a message's slices. The simulated network
// (internal/simnet) clones what it delivers, since it may deliver one
// message twice; the real transports take the envelope instead (see
// runtime.Transport). Payload bytes (entry Data and Config, snapshot
// images) are read-only and stay shared.
func CloneMessage(m Message) Message {
	switch v := m.(type) {
	case AppendEntries:
		v.Entries = slices.Clone(v.Entries)
		return v
	case RequestVoteResp:
		v.SelfApproved = slices.Clone(v.SelfApproved)
		return v
	case ReadRequest:
		v.Reads = slices.Clone(v.Reads)
		return v
	case ReadReply:
		v.Results = slices.Clone(v.Results)
		return v
	case ShardBatch:
		frames := make([]ShardFrame, len(v.Frames))
		for i, f := range v.Frames {
			f.Msg = CloneMessage(f.Msg)
			frames[i] = f
		}
		v.Frames = frames
		return v
	default:
		return m
	}
}
