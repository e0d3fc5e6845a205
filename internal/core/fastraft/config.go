package fastraft

import (
	"errors"
	"math/rand"
	"time"

	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// Config parametrizes a Fast Raft node.
type Config struct {
	// ID is this site's identity.
	ID types.NodeID
	// Bootstrap is the initial configuration used when storage is empty. A
	// joining site uses an empty bootstrap and learns membership from the
	// leader's catch-up.
	Bootstrap types.Config
	// Storage is the site's stable storage (required).
	Storage storage.Storage
	// HeartbeatInterval is the leader tick period (paper: 100 ms
	// intra-cluster, 500 ms inter-cluster).
	HeartbeatInterval time.Duration
	// ElectionTimeoutMin/Max bound the randomized election timeout; the
	// minimum must exceed typical message delays.
	ElectionTimeoutMin time.Duration
	// ElectionTimeoutMax must be > ElectionTimeoutMin.
	ElectionTimeoutMax time.Duration
	// ProposalTimeout is the paper's proposal timeout: how long a proposer
	// waits for its entry to commit before re-proposing it at a fresh
	// index.
	ProposalTimeout time.Duration
	// JoinTimeout is the paper's join timeout: how long a joiner waits for
	// acceptance before re-sending its join request.
	JoinTimeout time.Duration
	// MemberTimeoutRounds is the paper's member timeout: the number of
	// consecutive missed AppendEntries responses after which the leader
	// proposes a configuration excluding the silent follower (paper
	// experiments: 5).
	MemberTimeoutRounds int
	// SnapshotThreshold is the number of committed entries beyond the
	// latest snapshot boundary after which the node snapshots its state
	// machine and compacts the log prefix (0 = compaction disabled). The
	// leader ships the snapshot to followers whose nextIndex falls below
	// the compacted prefix (InstallSnapshot).
	SnapshotThreshold int
	// MaxEntriesPerAppend caps the entries carried by one AppendEntries
	// message (0 = unlimited). With a cap, a lagging follower catches up
	// over several bounded round trips instead of receiving the entire
	// retained suffix in one message — essential for datagram transports.
	MaxEntriesPerAppend int
	// MaxInflightAppends bounds outstanding AppendEntries messages per
	// follower once it is replicating (0 = replica.DefaultMaxInflight). A
	// full window downgrades the round to a plain heartbeat instead of
	// duplicating in-flight entries. Secondary to MaxInflightBytes.
	MaxInflightAppends int
	// MaxInflightBytes bounds the encoded entry bytes outstanding per
	// follower (0 = replica.DefaultMaxInflightBytes, 1 MiB): the primary
	// append window, sized at encode time so flow control tracks actual
	// wire cost instead of message counts.
	MaxInflightBytes int
	// MaxSnapshotChunk is the InstallSnapshot chunk payload size in bytes:
	// the leader slices the encoded snapshot into chunks no larger than
	// this so large state machines fit UDP datagrams and do not stall
	// heartbeats (0 = whole snapshot in one message).
	MaxSnapshotChunk int
	// SnapshotResendTimeout is how long a transfer may go without
	// acknowledged progress before it is retried, before any round trips
	// have been observed on the link (default 4 heartbeats): a pending
	// snapshot's unacked part is re-sent, and a full AppendEntries window
	// falls back to probing so lost appends are retransmitted. Once acks
	// flow, the per-peer adaptive estimate (EWMA of observed round trips,
	// clamped between HeartbeatInterval and ElectionTimeoutMin) takes
	// over.
	SnapshotResendTimeout time.Duration
	// MaxInflightProposals caps this site's unresolved broadcast proposals
	// (0 = unlimited). Proposals past the cap queue in FIFO order and are
	// broadcast as earlier ones resolve, so a proposer burst cannot spray
	// sparse insertions across arbitrary log indices.
	MaxInflightProposals int
	// MaxInflightProposalBytes bounds the encoded payload bytes
	// (types.EntryWireSize) of this site's broadcast-but-unresolved
	// proposals (0 = unlimited) — the byte-based mirror of
	// MaxInflightProposals, so a burst of large entries is throttled as
	// early as a burst of many small ones. The first proposal always
	// broadcasts, so a single oversized entry cannot wedge the queue.
	MaxInflightProposalBytes int
	// SessionTTL expires client sessions idle longer than this: the leader
	// periodically commits clock entries and every replica drops the same
	// timed-out sessions when applying them. 0 disables expiry (sessions
	// live until the LRU cap evicts them).
	SessionTTL time.Duration
	// Snapshotter produces and consumes application state-machine images
	// for compaction. Optional: without one, snapshots carry empty state
	// and compaction is driven purely by the commit index — appropriate
	// only when no application state must survive (tests, harnesses).
	Snapshotter types.Snapshotter
	// DisableFastTrack makes this site a classic Raft proposer: Propose*
	// forwards to the leader (ClientPropose), which appends the entry and
	// commits it on a classic quorum of acks. As leader, the site also
	// commits everything else on the classic track. Classic Raft is Fast
	// Raft with this set (plus no silent-leave detection or auto-rejoin).
	DisableFastTrack bool
	// AutoRejoin makes a live site that discovers it was removed from the
	// configuration (e.g. a mistaken silent-leave detection) send join
	// requests to return. Enabled by default through Defaults.
	AutoRejoin bool
	// noAutoRejoin records an explicit opt-out (Defaults would otherwise
	// re-enable).
	NoAutoRejoin bool
	// Rand drives randomized timeouts; required for deterministic
	// simulation.
	Rand *rand.Rand
	// Layer tags outgoing envelopes; C-Raft's inter-cluster instance runs
	// at types.LayerGlobal. Defaults to types.LayerLocal.
	Layer types.Layer
	// Recorder, when set, receives protocol flight-recorder events and
	// proposal lifecycle spans (see internal/trace). Nil disables recording
	// at the cost of one nil check per instrumentation point.
	Recorder *trace.Recorder
}

// Defaults fills unset values with the paper's experimental settings.
func (c *Config) Defaults() {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.ElectionTimeoutMin == 0 {
		c.ElectionTimeoutMin = 3 * c.HeartbeatInterval
	}
	if c.ElectionTimeoutMax == 0 {
		c.ElectionTimeoutMax = 2 * c.ElectionTimeoutMin
	}
	if c.ProposalTimeout == 0 {
		c.ProposalTimeout = 6 * c.HeartbeatInterval
	}
	if c.JoinTimeout == 0 {
		c.JoinTimeout = 10 * c.HeartbeatInterval
	}
	if c.MemberTimeoutRounds == 0 {
		c.MemberTimeoutRounds = 5
	}
	if c.SnapshotResendTimeout == 0 {
		c.SnapshotResendTimeout = 4 * c.HeartbeatInterval
	}
	if !c.NoAutoRejoin {
		c.AutoRejoin = true
	}
	if c.Layer == 0 {
		c.Layer = types.LayerLocal
	}
}

func (c *Config) validate() error {
	if c.ID == types.None {
		return errors.New("fastraft: config needs an ID")
	}
	if c.Storage == nil {
		return errors.New("fastraft: config needs Storage")
	}
	if c.Rand == nil {
		return errors.New("fastraft: config needs Rand")
	}
	if c.ElectionTimeoutMax <= c.ElectionTimeoutMin {
		return errors.New("fastraft: ElectionTimeoutMax must exceed ElectionTimeoutMin")
	}
	return nil
}
