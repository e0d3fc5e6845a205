// Package types defines the identifiers, log entries, configurations and
// protocol messages shared by every consensus implementation in this
// repository (classic Raft, Fast Raft and C-Raft), together with a compact
// binary wire codec used by the UDP transport.
//
// The package is deliberately free of any protocol logic: it is the common
// vocabulary of the system.
package types

import "fmt"

// NodeID identifies a site (the paper's term for a participant). IDs are
// opaque strings; the transports route on them. At the C-Raft global level,
// NodeIDs name clusters rather than individual sites.
type NodeID string

// None is the zero NodeID, used where "no node" is meant (e.g. votedFor).
const None NodeID = ""

// GroupID names one consensus group inside a multi-group (sharded) process.
// The empty GroupID is the flat single-group namespace; shard managers
// assign non-empty IDs and the codec tags frames with them.
type GroupID string

// Term is a Raft term number. Terms increase monotonically; each term has
// at most one leader.
type Term uint64

// Index is a position in the replicated log. Indices start at 1; 0 means
// "no entry".
type Index uint64

// SessionID identifies a client session for exactly-once proposal
// semantics. It is the log index at which the session's KindSessionOpen
// entry committed, so every replica derives the same ID without extra
// coordination (the Raft-dissertation convention). Zero means "no session".
type SessionID uint64

// IsZero reports whether the SessionID is unset.
func (s SessionID) IsZero() bool { return s == 0 }

// String renders the SessionID for logs and test failure messages.
func (s SessionID) String() string {
	if s == 0 {
		return "sess(-)"
	}
	return fmt.Sprintf("sess(%d)", uint64(s))
}

// ProposalID uniquely identifies a proposal across re-proposals: a proposer
// re-sends an entry under the same ProposalID until it learns the entry
// committed, and every node uses the ID to de-duplicate.
type ProposalID struct {
	// Proposer is the site that originated the proposal.
	Proposer NodeID
	// Seq is a proposer-local sequence number, unique per proposer.
	Seq uint64
}

// IsZero reports whether the ProposalID is unset. Leader-originated internal
// entries (no-ops) may carry a zero ProposalID.
func (p ProposalID) IsZero() bool { return p.Proposer == None && p.Seq == 0 }

// String renders the ProposalID for logs and test failure messages.
func (p ProposalID) String() string {
	if p.IsZero() {
		return "pid(-)"
	}
	return fmt.Sprintf("pid(%s/%d)", p.Proposer, p.Seq)
}

// Less provides a deterministic total order over ProposalIDs. It is used to
// break ties in the Fast Raft decide loop so that independent replays of the
// same vote multiset always pick the same winner.
func (p ProposalID) Less(q ProposalID) bool {
	if p.Proposer != q.Proposer {
		return p.Proposer < q.Proposer
	}
	return p.Seq < q.Seq
}
