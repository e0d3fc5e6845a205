// Package hraft is a Go implementation of Fast Raft and C-Raft, the
// consensus algorithms of Castiglia, Goldberg and Patterson, "A
// Hierarchical Model for Fast Distributed Consensus in Dynamic Networks"
// (ICDCS 2020).
//
// Fast Raft is a Raft variant for dynamic networks that commits in two
// message rounds on a fast track (proposers broadcast directly to all
// sites) and falls back to a classic Raft track under conflict or loss.
// C-Raft arranges sites into clusters: each cluster runs Fast Raft over a
// local log, and cluster leaders run Fast Raft among themselves over a
// global log of batches, multiplying throughput in geo-distributed
// deployments.
//
// # Quick start
//
//	net := hraft.NewInProcNetwork(1)
//	peers := []hraft.NodeID{"n1", "n2", "n3", "n4", "n5"}
//	var nodes []*hraft.Node
//	for _, id := range peers {
//		n, err := hraft.NewNode(hraft.Options{
//			ID:        id,
//			Peers:     peers,
//			Transport: net.Endpoint(id),
//		})
//		// handle err
//		nodes = append(nodes, n)
//	}
//	idx, err := nodes[0].Propose(ctx, []byte("hello"))
//
// Proposals submitted on any node are replicated to every member; the
// committed entry stream is available through Node.Commits or the OnCommit
// callback. See the examples directory for a replicated key-value store, a
// geo-replicated C-Raft deployment, dynamic membership and leader
// failover.
//
// The deterministic discrete-event simulator and the experiment harness
// that regenerate the paper's figures live under internal/ and are driven
// by cmd/hraft-bench.
package hraft

import (
	"github.com/hraft-io/hraft/internal/runtime"
	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/types"
	"github.com/hraft-io/hraft/internal/udpnet"
)

// Core protocol types, re-exported for the public API surface.
type (
	// NodeID identifies a site (or, at the C-Raft global level, a
	// cluster).
	NodeID = types.NodeID
	// Index is a log position (1-based; 0 means none).
	Index = types.Index
	// Term is a Raft term number.
	Term = types.Term
	// Entry is one slot of the replicated log. Its Data is read-only:
	// a committed entry shares its payload with the node's log.
	Entry = types.Entry
	// ProposalID identifies a proposal across re-proposals.
	ProposalID = types.ProposalID
	// Role is a site's role in the current term.
	Role = types.Role
	// Membership is a voting-member configuration.
	Membership = types.Config
	// Envelope is a routed protocol message.
	Envelope = types.Envelope
	// Batch is the payload of a C-Raft global-log batch entry.
	Batch = types.Batch
	// Snapshot is a point-in-time state-machine image plus the log
	// metadata locating it (see Snapshotter and Options.SnapshotThreshold).
	Snapshot = types.Snapshot
	// SnapshotMeta locates a snapshot in the log: last included
	// index/term and the membership in effect there.
	SnapshotMeta = types.SnapshotMeta
	// Snapshotter is implemented by the application state machine to
	// enable log compaction: Snapshot() serializes the state it has
	// applied so far (reporting the last applied index), Restore()
	// replaces it with a snapshot received from storage or the leader.
	Snapshotter = types.Snapshotter
)

// Role values.
const (
	// Follower participates in consensus on leader-decided entries.
	Follower = types.RoleFollower
	// Candidate is running an election.
	Candidate = types.RoleCandidate
	// Leader coordinates consensus for the term.
	Leader = types.RoleLeader
)

// Entry kinds relevant to API users.
const (
	// EntryNormal is an application entry.
	EntryNormal = types.KindNormal
	// EntryConfig is a membership configuration entry.
	EntryConfig = types.KindConfig
	// EntryNoop is a leader-internal empty entry.
	EntryNoop = types.KindNoop
	// EntryBatch is a C-Raft global-log batch.
	EntryBatch = types.KindBatch
	// EntrySessionOpen registers a client session (its commit index is the
	// SessionID).
	EntrySessionOpen = types.KindSessionOpen
	// EntrySessionExpire is a leader clock entry driving deterministic
	// session expiry.
	EntrySessionExpire = types.KindSessionExpire
)

// Transport moves envelopes between nodes; implementations include the
// in-process network and the UDP transport.
type Transport = runtime.Transport

// Storage is a site's stable storage.
type Storage = storage.Storage

// InProcNetwork connects nodes within one process, with optional latency
// and loss injection for realistic demos. Like every Transport it takes
// each sent envelope without copying it and recycles the envelope's pooled
// parts once the receiving handler returns; delayed envelopes wait in a
// per-destination delay line and arrive in send order per link.
type InProcNetwork = runtime.InProcNetwork

// NewInProcNetwork returns an in-process network; seed drives loss
// sampling.
func NewInProcNetwork(seed int64) *InProcNetwork {
	return runtime.NewInProcNetwork(seed)
}

// UDPTransport is a transport over UDP datagrams (the paper's deployment
// medium).
type UDPTransport = udpnet.Transport

// ListenUDP opens a UDP transport for node id bound to addr.
func ListenUDP(id NodeID, addr string) (*UDPTransport, error) {
	return udpnet.Listen(id, addr)
}

// NewMemoryStorage returns volatile stable storage, suitable for tests and
// examples.
func NewMemoryStorage() Storage { return storage.NewMemory() }

// OpenWAL opens (or creates) file-backed stable storage at path, with
// CRC-framed records, fixed-size segments and torn-tail recovery. Fully
// synchronous: every mutation is fsynced before returning. Use
// OpenWALOptions to enable group commit.
func OpenWAL(path string) (Storage, error) { return storage.OpenWAL(path) }

// WALOptions tunes the segmented write-ahead log: group-commit fsync
// batching (with its latency/size window), segment size, and the
// fsync-batch observer.
type WALOptions = storage.WALOptions

// OpenWALOptions opens (or creates) file-backed stable storage at path
// with explicit tuning. With WALOptions.GroupCommit set, concurrent
// mutations share one buffered write + one fsync and the node gates its
// outputs on durability (acknowledgments are sent only once the entries
// they cover are on disk).
func OpenWALOptions(path string, opt WALOptions) (Storage, error) {
	return storage.OpenWALOptions(path, opt)
}

// DecodeBatch parses a Batch from an EntryBatch entry's Data. Item
// payloads share that Data and are read-only like it.
func DecodeBatch(data []byte) (Batch, error) { return types.DecodeBatch(data) }
