package hraft

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/hraft-io/hraft/internal/audit"
	"github.com/hraft-io/hraft/internal/core/fastraft"
	"github.com/hraft-io/hraft/internal/runtime"
	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// Options configures a Fast Raft node.
type Options struct {
	// ID is this site's identity (required).
	ID NodeID
	// Peers is the initial voting membership. Leave empty for a node that
	// joins an existing group via Join.
	Peers []NodeID
	// Transport connects the node to its peers (required).
	Transport Transport
	// Storage is the stable storage (default: in-memory).
	Storage Storage
	// HeartbeatInterval is the leader tick period (default 100 ms, the
	// paper's intra-cluster setting).
	HeartbeatInterval time.Duration
	// ElectionTimeoutMin/Max bound the randomized election timeout
	// (defaults derived from the heartbeat).
	ElectionTimeoutMin time.Duration
	// ElectionTimeoutMax must exceed ElectionTimeoutMin when set.
	ElectionTimeoutMax time.Duration
	// ProposalTimeout is the proposer's re-propose period.
	ProposalTimeout time.Duration
	// MemberTimeoutRounds is the silent-leave detection threshold in
	// missed heartbeat responses (default 5).
	MemberTimeoutRounds int
	// SnapshotThreshold enables log compaction: once this many entries
	// commit beyond the latest snapshot, the node snapshots the
	// application state (through Snapshotter) and discards the covered log
	// prefix from memory and stable storage. Lagging or restarted peers
	// catch up via snapshot transfer instead of full log replay. 0
	// disables compaction (the log grows forever).
	SnapshotThreshold int
	// Snapshotter is the application's state-machine snapshot hook,
	// required for meaningful compaction: Snapshot() serializes the state
	// (and reports the last applied index), Restore() replaces it — on
	// restart from a stored snapshot, and when the leader installs one.
	// With a nil Snapshotter, snapshots carry no application state;
	// enable compaction without one only if replaying every entry is not
	// needed to rebuild state.
	Snapshotter Snapshotter
	// MaxEntriesPerAppend caps the entries carried by one AppendEntries
	// message (0 = unlimited), so a lagging follower catches up over
	// several bounded round trips instead of receiving the entire retained
	// log suffix in one message. Set it when the transport has a datagram
	// size limit (UDP).
	MaxEntriesPerAppend int
	// MaxInflightAppends bounds outstanding AppendEntries messages per
	// follower once it is replicating (0 = a small default). Catch-up
	// pipelines up to this many messages per round trip; a full window
	// downgrades the round to a plain heartbeat instead of duplicating
	// in-flight entries on a slow peer. Secondary to MaxInflightBytes.
	MaxInflightAppends int
	// MaxInflightBytes bounds the encoded entry bytes outstanding per
	// follower (0 = 1 MiB): the primary append window. Entries are sized
	// at encode time, so flow control tracks actual wire cost — a follower
	// absorbing large entries is throttled as early as one absorbing many
	// small ones.
	MaxInflightBytes int
	// MaxSnapshotChunk, when set, streams snapshot transfers
	// (InstallSnapshot) in chunks of at most this many payload bytes
	// instead of one message carrying the whole image — required for
	// datagram transports once state machines outgrow a datagram. The
	// follower reassembles and installs on the final chunk; acknowledged
	// chunks are never re-sent. 0 ships the whole snapshot in one message.
	MaxSnapshotChunk int
	// MaxInflightProposals caps this node's unresolved proposals (0 =
	// unlimited). Excess proposals queue in FIFO order and are broadcast
	// as earlier ones resolve, keeping a proposer burst from spraying
	// sparse insertions across arbitrary log indices.
	MaxInflightProposals int
	// MaxInflightProposalBytes bounds the encoded payload bytes of this
	// node's broadcast-but-unresolved proposals (0 = unlimited): the
	// byte-based mirror of MaxInflightProposals, sized at encode time, so
	// a burst of large entries is throttled as early as a burst of many
	// small ones. The first proposal always broadcasts.
	MaxInflightProposalBytes int
	// SessionTTL expires client sessions (OpenSession) idle longer than
	// this, via leader-committed clock entries applied identically on every
	// replica. 0 disables expiry: sessions then live until the registry's
	// LRU cap evicts them.
	SessionTTL time.Duration
	// DisableFastTrack makes the node a classic Raft proposer (for
	// comparisons): proposals go to the leader, which commits them on a
	// classic quorum of acks, and nothing commits on the fast track.
	// NewRaftNode sets it.
	DisableFastTrack bool
	// Seed drives randomized timeouts (0 = time-based).
	Seed int64
	// OnCommit, when set, observes every committed entry in order.
	OnCommit func(Entry)
	// CommitBuffer sizes the Commits channel (default 1024). The channel
	// must be consumed, or commit delivery stalls (consensus itself keeps
	// running).
	CommitBuffer int
	// Trace, when set, enables the protocol flight recorder: typed events
	// (elections, per-peer appends, snapshot streams, reads, sessions) in
	// a fixed-size ring plus per-proposal stage latency histograms and
	// slow-op logging. Retrieve with Recorder, serve with ServeDebug. Nil
	// disables recording at negligible cost.
	Trace *TraceOptions
}

// ErrStopped is returned by operations on a stopped node.
var ErrStopped = errors.New("hraft: node stopped")

// mixSeed derives a node's timer seed from the user seed and the node ID,
// so that nodes given the same seed still draw distinct randomized
// timeouts (identical streams would keep dueling candidates in lockstep).
// A zero seed falls back to the wall clock.
func mixSeed(seed int64, id NodeID) int64 {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	const prime = 1099511628211
	h := uint64(seed)
	for _, c := range []byte(id) {
		h ^= uint64(c)
		h *= prime
	}
	return int64(h)
}

// Node is a Fast Raft site running on real time. Propose copies the
// caller's buffer; committed entries share the log's Data, read-only.
type Node struct{ *site }

// site is the implementation Node and RaftNode share: one Fast Raft core
// (classic Raft is that core with the fast track off) on a runtime host.
// RaftNode exposes a subset of Node's methods: the ones defined here.
type site struct {
	base[Entry]
	fr      *fastraft.Node
	commits chan Entry
}

// base is what every node type shares: the runtime host over its machine
// (C is the machine's commit record), the online safety auditor, and the
// waiters that turn resolutions and read completions into finished
// Propose and Read calls.
type base[C any] struct {
	host *runtime.Host[C]
	aud  *audit.Auditor
	proposalWaiters
	readWaiters
}

// checkRequired reports a missing ID or Transport, which every node type's
// options (named by opts in the error) require.
func checkRequired(opts string, id NodeID, tr Transport) error {
	if id == types.None {
		return fmt.Errorf("hraft: %s.ID is required", opts)
	}
	if tr == nil {
		return fmt.Errorf("hraft: %s.Transport is required", opts)
	}
	return nil
}

// commitBuffer sizes a commit channel: the options' CommitBuffer, or 1024
// when unset.
func commitBuffer(n int) int {
	if n <= 0 {
		return 1024
	}
	return n
}

// start hosts m on tr: its commit records, drained by drainCommitted, go
// to onCommit; its resolutions and read completions to the waiters; the
// durability advances of s to the machine (see wireDurability).
func (b *base[C]) start(aud *audit.Auditor, rec *trace.Recorder, m runtime.Machine, drainCommitted func([]C) []C, onCommit func(C), tr Transport, s Storage) {
	b.aud = aud
	b.proposalWaiters.waiters = make(map[ProposalID]chan Index)
	b.readWaiters.waiters = make(map[uint64]chan readOutcome)
	b.host = runtime.NewHost(m, drainCommitted, tr, runtime.Callbacks[C]{
		OnCommit:   onCommit,
		OnResolve:  b.resolve,
		OnReadDone: b.resolveRead,
		Recorder:   rec,
	})
	wireDurability(b.host, s, rec)
}

// Stop halts the node, like a crash: peers detect the silence. Its
// storage remains usable for a restart.
func (b *base[C]) Stop() {
	b.markStopped()
	b.markReadsStopped()
	b.host.Stop()
}

// AuditReport snapshots the node's online safety auditor (trivially clean
// when tracing — and with it auditing — is disabled). A C-Raft site's
// auditor watches both consensus layers, a sharded node's every group.
// Safe from any goroutine.
func (b *base[C]) AuditReport() AuditReport { return b.aud.Snapshot() }

// NewNode builds and starts a Fast Raft node.
func NewNode(opts Options) (*Node, error) {
	s, err := newSite(opts, false)
	if err != nil {
		return nil, err
	}
	return &Node{s}, nil
}

// newSite builds and starts the core behind Node and RaftNode. classic
// selects classic Raft: the fast track off, static membership (no
// silent-leave detection, no automatic rejoin).
func newSite(opts Options, classic bool) (*site, error) {
	if err := checkRequired("Options", opts.ID, opts.Transport); err != nil {
		return nil, err
	}
	if opts.Storage == nil {
		opts.Storage = NewMemoryStorage()
	}
	seed := mixSeed(opts.Seed, opts.ID)
	rec, aud := newRecorder(opts.ID, opts.Trace)
	cfg := fastraft.Config{
		ID:                       opts.ID,
		Bootstrap:                types.NewConfig(opts.Peers...),
		Storage:                  opts.Storage,
		HeartbeatInterval:        opts.HeartbeatInterval,
		ElectionTimeoutMin:       opts.ElectionTimeoutMin,
		ElectionTimeoutMax:       opts.ElectionTimeoutMax,
		ProposalTimeout:          opts.ProposalTimeout,
		MemberTimeoutRounds:      opts.MemberTimeoutRounds,
		SnapshotThreshold:        opts.SnapshotThreshold,
		Snapshotter:              opts.Snapshotter,
		MaxEntriesPerAppend:      opts.MaxEntriesPerAppend,
		MaxInflightAppends:       opts.MaxInflightAppends,
		MaxInflightBytes:         opts.MaxInflightBytes,
		MaxSnapshotChunk:         opts.MaxSnapshotChunk,
		MaxInflightProposals:     opts.MaxInflightProposals,
		MaxInflightProposalBytes: opts.MaxInflightProposalBytes,
		SessionTTL:               opts.SessionTTL,
		DisableFastTrack:         opts.DisableFastTrack,
		Rand:                     rand.New(rand.NewSource(seed)),
		Recorder:                 rec,
	}
	if classic {
		cfg.DisableFastTrack, cfg.MemberTimeoutRounds, cfg.NoAutoRejoin = true, -1, true
	}
	fr, err := fastraft.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("hraft: %w", err)
	}
	n := &site{fr: fr, commits: make(chan Entry, commitBuffer(opts.CommitBuffer))}
	n.start(aud, rec, fr, fr.DrainCommitted, func(e Entry) {
		if opts.OnCommit != nil {
			opts.OnCommit(e)
		}
		n.commits <- e
	}, opts.Transport, opts.Storage)
	return n, nil
}

// wireDurability connects group-commit storage to a host: fsync
// completions flow back through NotifyDurable so durability-gated machine
// outputs release, and (when tracing) each durable batch feeds the
// hist.fsync_batch_size histogram. A no-op for synchronous storage.
func wireDurability[C any](host *runtime.Host[C], s Storage, rec *trace.Recorder) {
	g := storage.AsGrouped(s)
	if g == nil {
		return
	}
	g.OnDurable(host.NotifyDurable)
	if rec == nil {
		return
	}
	type fsyncObservable interface {
		SetFsyncObserver(func(records, bytes int, took time.Duration))
	}
	if fo, ok := s.(fsyncObservable); ok {
		start := time.Now()
		fo.SetFsyncObserver(func(records, bytes int, _ time.Duration) {
			rec.FsyncBatch(time.Since(start), records, bytes)
		})
	}
}

// ID returns the node's identity.
func (n *site) ID() NodeID { return n.fr.ID() }

// Role returns the node's current role.
func (n *site) Role() Role {
	var r Role
	n.host.Do(func(time.Duration) { r = n.fr.Role() })
	return r
}

// Leader returns the node's view of the current leader (empty if unknown).
func (n *site) Leader() NodeID {
	var l NodeID
	n.host.Do(func(time.Duration) { l = n.fr.LeaderID() })
	return l
}

// Term returns the node's current term.
func (n *site) Term() Term {
	var t Term
	n.host.Do(func(time.Duration) { t = n.fr.Term() })
	return t
}

// CommitIndex returns the node's commit index.
func (n *site) CommitIndex() Index {
	var i Index
	n.host.Do(func(time.Duration) { i = n.fr.CommitIndex() })
	return i
}

// SnapshotIndex returns the node's log-compaction boundary: the last index
// covered by its snapshot (0 if the log has never been compacted).
func (n *Node) SnapshotIndex() Index {
	var i Index
	n.host.Do(func(time.Duration) { i = n.fr.SnapshotIndex() })
	return i
}

// FirstIndex returns the first retained log index (1 when nothing has been
// compacted).
func (n *Node) FirstIndex() Index {
	var i Index
	n.host.Do(func(time.Duration) { i = n.fr.FirstIndex() })
	return i
}

// Members returns the node's active voting configuration.
func (n *Node) Members() Membership {
	var m Membership
	n.host.Do(func(time.Duration) { m = n.fr.Config().Clone() })
	return m
}

// Commits streams committed entries (Data read-only) in log order. The
// channel must be consumed.
func (n *site) Commits() <-chan Entry { return n.commits }

// Metrics returns a snapshot of the node's monotonic replication counters
// (snapshot chunks sent/resent, appends throttled, pending-install rounds,
// proposals queued, ...). Publish them with PublishExpvar or scrape
// periodically; counters only ever increase.
func (n *site) Metrics() map[string]uint64 {
	var m map[string]uint64
	n.host.Do(func(time.Duration) { m = n.fr.Metrics() })
	n.aud.MergeMetrics(m)
	return m
}

// ProposeAsync submits an entry without waiting; the proposal is re-sent
// until it commits (watch Commits or use Propose to await it).
func (n *site) ProposeAsync(data []byte) ProposalID {
	var pid ProposalID
	n.host.Do(func(now time.Duration) {
		pid = n.fr.Propose(now, data)
	})
	return pid
}

// Propose submits an entry and waits for it to commit, returning its log
// index. Note that a retry after a lost acknowledgment can commit twice;
// use OpenSession/Session.Propose for exactly-once semantics.
func (n *site) Propose(ctx context.Context, data []byte) (Index, error) {
	return n.await(ctx, func(now time.Duration) ProposalID {
		return n.fr.Propose(now, data)
	})
}

// Join starts the join protocol toward the given contacts: the node
// becomes a non-voting member, is caught up by the leader, and turns into
// a voting member once the configuration including it commits.
func (n *Node) Join(contacts []NodeID) {
	n.host.Do(func(now time.Duration) {
		n.fr.Join(now, contacts)
	})
}

// Leave announces that this node wants to leave the configuration.
func (n *Node) Leave() {
	n.host.Do(func(now time.Duration) {
		n.fr.Leave(now)
	})
}
