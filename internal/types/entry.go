package types

import (
	"bytes"
	"fmt"
)

// EntryKind classifies log entries. The consensus cores treat most kinds
// uniformly; the kind matters to the layers that interpret committed
// entries (applications, membership, C-Raft batching).
type EntryKind uint8

const (
	// KindNormal is an application entry: opaque Data proposed by a client.
	KindNormal EntryKind = iota + 1
	// KindNoop is an empty entry a new leader appends to establish a commit
	// point in its own term (Raft-thesis practice) or to fill a vote-free
	// gap index during Fast Raft recovery.
	KindNoop
	// KindConfig is a membership configuration entry. Config is non-nil.
	KindConfig
	// KindBatch is a C-Raft global-log entry carrying a batch of locally
	// committed application entries. Data holds an encoded Batch.
	KindBatch
	// KindGlobalState is a C-Raft local-log entry replicating a cluster
	// leader's inter-cluster consensus state. Data holds an encoded
	// GlobalStateDelta.
	KindGlobalState
	// KindSessionOpen registers a client session. The log index at which
	// the entry commits becomes the SessionID, so every replica assigns
	// the same identity.
	KindSessionOpen
	// KindSessionExpire is a leader clock entry driving session expiry:
	// Data carries a clock advance and TTL (see internal/session), and
	// every replica expires the same sessions when it applies the entry.
	KindSessionExpire
	// KindShardSplit is a shard-manager lifecycle entry committed in a
	// parent group: on apply, every member's manager creates the daughter
	// group named in the payload and moves the upper key range to it.
	// Defined here (with the other wire kinds) but interpreted only by
	// internal/shard; the cores replicate it like any data entry.
	KindShardSplit
	// KindShardMerge is a shard-manager lifecycle entry committed in the
	// retiring (right) group: on apply, the left neighbor named in the
	// payload absorbs the group's key range.
	KindShardMerge
)

// String names the kind for logs and tests.
func (k EntryKind) String() string {
	switch k {
	case KindNormal:
		return "normal"
	case KindNoop:
		return "noop"
	case KindConfig:
		return "config"
	case KindBatch:
		return "batch"
	case KindGlobalState:
		return "globalstate"
	case KindSessionOpen:
		return "sessionopen"
	case KindSessionExpire:
		return "sessionexpire"
	case KindShardSplit:
		return "shardsplit"
	case KindShardMerge:
		return "shardmerge"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Approval records who placed an entry in a site's log — the paper's
// insertedBy field. Self-approved entries were inserted directly on a
// proposer's broadcast; leader-approved entries were decided by a leader.
type Approval uint8

const (
	// ApprovedSelf marks an entry inserted by the site itself upon
	// receiving a proposer's broadcast (Fast Raft fast track).
	ApprovedSelf Approval = iota + 1
	// ApprovedLeader marks an entry decided by a leader: either appended by
	// the leader locally or received through AppendEntries.
	ApprovedLeader
)

// String names the approval state.
func (a Approval) String() string {
	switch a {
	case ApprovedSelf:
		return "self"
	case ApprovedLeader:
		return "leader"
	default:
		return fmt.Sprintf("approval(%d)", uint8(a))
	}
}

// Entry is one slot of the replicated log.
//
// Ownership: an entry's Data and Config are immutable once the entry
// exists. Bytes the code does not own are copied exactly once, where they
// come in (Propose* copies the caller's buffer, decode copies out of the
// datagram); after that the log, the tally, storage, transports and the
// commit stream all share the same payload, and nothing may write to it.
// Only the struct fields (Index, Term, Approval, ...) are per-copy.
type Entry struct {
	// Index is the entry's position in the log (1-based).
	Index Index
	// Term is the term in which the entry was last (re-)stamped by a
	// leader. Self-approved entries carry the inserting site's current term
	// and are re-stamped when a leader decides them.
	Term Term
	// Kind classifies the entry.
	Kind EntryKind
	// Approval is the paper's insertedBy marker.
	Approval Approval
	// PID identifies the proposal, for de-duplication and commit
	// notification. Zero for leader-internal entries. A PID is stable only
	// within one proposer process lifetime; session entries additionally
	// carry (Session, SessionSeq), which survives restarts.
	PID ProposalID
	// Session ties the entry to an open client session for exactly-once
	// apply (0 = none): every replica skips applying duplicates of
	// (Session, SessionSeq) and answers with the cached response instead.
	Session SessionID
	// SessionSeq is the session-scoped sequence number, meaningful when
	// Session is non-zero.
	SessionSeq uint64
	// SessionAck is the client's retry floor, piggybacked on session
	// proposals (meaningful when Session is non-zero; 0 = no ack): the
	// client promises never to retry sequences below it, so every replica
	// drops the session's cached responses for those sequences when the
	// entry commits, instead of holding them until the LRU cap evicts them.
	SessionAck uint64
	// Data is the application payload (or encoded Batch/GlobalStateDelta).
	Data []byte
	// Config is set iff Kind == KindConfig.
	Config *Config
	// TraceID is the sampled causal-trace context minted at the origin
	// node (0 = unsampled, which is the default and costs zero wire
	// bytes). It rides the entry across forwards, replication, snapshots
	// and C-Raft batch hops so every node records the proposal's journey
	// into its flight recorder. Pure observability: it is excluded from
	// proposal identity (SameProposal) and from the auditor's entry
	// digest.
	TraceID uint64
}

// Clone returns a copy of the entry that shares its read-only Data and
// owns a copy of its Config.
func (e Entry) Clone() Entry {
	c := e
	if e.Config != nil {
		cc := e.Config.Clone()
		c.Config = &cc
	}
	return c
}

// SameProposal reports whether two entries denote the same proposed value.
// Session entries compare by (Session, SessionSeq) — the identity that
// survives proposer restarts; other entries with non-zero PIDs compare by
// PID; leader-internal entries compare by kind and payload.
func (e Entry) SameProposal(o Entry) bool {
	if !e.Session.IsZero() || !o.Session.IsZero() {
		return e.Session == o.Session && e.SessionSeq == o.SessionSeq
	}
	if !e.PID.IsZero() || !o.PID.IsZero() {
		return e.PID == o.PID
	}
	if e.Kind != o.Kind {
		return false
	}
	return bytes.Equal(e.Data, o.Data)
}

// String renders a compact description of the entry.
func (e Entry) String() string {
	return fmt.Sprintf("entry{i=%d t=%d %s %s %s len=%d}",
		e.Index, e.Term, e.Kind, e.Approval, e.PID, len(e.Data))
}
