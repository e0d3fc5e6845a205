// Package harness runs consensus clusters on the deterministic simulator:
// it hosts classic Raft, Fast Raft and C-Raft state machines on simnet,
// drives closed-loop proposers, scripts churn (crashes, joins, silent
// leaves, partitions) and checks safety invariants continuously. The
// experiment harness in internal/bench is built on top of it.
package harness

import (
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

// Machine is the sans-io node interface of the flat clusters' nodes: Fast
// Raft, or classic Raft as Fast Raft with the fast track off (C-Raft nodes
// wrap two of these).
type Machine interface {
	// ID returns the node's identity.
	ID() types.NodeID
	// Role returns the node's current role.
	Role() types.Role
	// Term returns the node's current term.
	Term() types.Term
	// LeaderID returns the node's view of the current leader.
	LeaderID() types.NodeID
	// CommitIndex returns the node's commit index.
	CommitIndex() types.Index
	// Config returns the node's active configuration.
	Config() types.Config
	// Step delivers a message.
	Step(now time.Duration, env types.Envelope)
	// Tick advances time.
	Tick(now time.Duration)
	// NextDeadline reports when the node next needs Tick (0 = never).
	NextDeadline() time.Duration
	// Propose submits an application payload.
	Propose(now time.Duration, data []byte) types.ProposalID
	// DrainOutbox appends outgoing messages to dst.
	DrainOutbox(dst []types.Envelope) []types.Envelope
	// DrainCommitted appends newly committed entries to dst.
	DrainCommitted(dst []types.Entry) []types.Entry
	// DrainResolved appends local proposal resolutions to dst.
	DrainResolved(dst []types.Resolution) []types.Resolution
	// PendingProposals counts unresolved local proposals.
	PendingProposals() int
	// Read registers a linearizable read under the given consistency mode
	// and returns its token (see internal/readpath).
	Read(now time.Duration, c types.ReadConsistency) uint64
	// DrainReadDone appends resolved reads to dst.
	DrainReadDone(dst []types.ReadDone) []types.ReadDone
	// SyncDone advances the node's storage durability horizon (a no-op
	// with synchronous storage; see internal/durable).
	SyncDone(now time.Duration, durableLSN uint64)
}
