package hraft

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/hraft-io/hraft/internal/audit"
	"github.com/hraft-io/hraft/internal/core/craft"
	"github.com/hraft-io/hraft/internal/runtime"
	"github.com/hraft-io/hraft/internal/types"
)

// CRaftOptions configures a C-Raft site.
type CRaftOptions struct {
	// ID is this site's identity (required).
	ID NodeID
	// Cluster is the cluster this site belongs to (required); it is also
	// the cluster's member name at the global level and must be routable
	// by the transport.
	Cluster NodeID
	// ClusterPeers is the cluster's initial local membership.
	ClusterPeers []NodeID
	// GlobalClusters is the initial set of clusters. Leave empty for a
	// cluster that joins the global configuration later via JoinGlobal.
	GlobalClusters []NodeID
	// Transport connects the site (required). It must route messages
	// addressed to the Cluster ID to whichever site currently leads the
	// cluster; the in-process network does this automatically when the
	// leading site's endpoint is registered under the cluster ID via
	// RegisterClusterEndpoint.
	Transport Transport
	// Storage is the local log's stable storage (default: in-memory).
	Storage Storage
	// BatchSize is entries per global batch (default 10).
	BatchSize int
	// BatchDelay flushes partial batches after this long (0 = off).
	BatchDelay time.Duration
	// LocalHeartbeat is the intra-cluster tick period (default 100 ms).
	LocalHeartbeat time.Duration
	// GlobalHeartbeat is the inter-cluster tick period (default 500 ms).
	GlobalHeartbeat time.Duration
	// SnapshotThreshold enables local-log compaction: the site snapshots
	// its replayed inter-cluster state once this many local entries commit
	// beyond the last snapshot, bounding local log growth (0 = disabled).
	SnapshotThreshold int
	// Snapshotter, when set, folds the embedding application's own state
	// into local-log snapshots, so applications that build state from the
	// Commits stream can enable compaction: Snapshot() serializes the
	// applied state (reporting the last applied local index), Restore()
	// replaces it on restart or snapshot installation. Compaction waits
	// until the application has applied everything the snapshot would
	// cover.
	Snapshotter Snapshotter
	// MaxEntriesPerAppend caps AppendEntries payloads at both consensus
	// levels (0 = unlimited).
	MaxEntriesPerAppend int
	// MaxInflightAppends bounds outstanding AppendEntries messages per
	// peer at both consensus levels (0 = a small default). Secondary to
	// MaxInflightBytes.
	MaxInflightAppends int
	// MaxInflightBytes bounds the encoded entry bytes outstanding per peer
	// at both consensus levels (0 = 1 MiB): the primary append window,
	// sized at encode time.
	MaxInflightBytes int
	// MaxSnapshotChunk streams local-log snapshot transfers in chunks of
	// at most this many payload bytes (0 = whole snapshot in one message).
	MaxSnapshotChunk int
	// MaxInflightProposalBytes bounds the encoded payload bytes of this
	// site's broadcast-but-unresolved intra-cluster proposals (0 =
	// unlimited); see Options.MaxInflightProposalBytes.
	MaxInflightProposalBytes int
	// MaxInflightBatches caps this cluster's unresolved global batch
	// proposals (0 = unlimited): batching pauses until earlier batches
	// resolve, so a fast cluster cannot flood the slower global level.
	MaxInflightBatches int
	// SessionTTL expires idle client sessions (OpenSession) at the
	// intra-cluster level (0 = no expiry).
	SessionTTL time.Duration
	// Seed drives randomized timeouts (0 = time-based).
	Seed int64
	// OnCommit observes locally committed entries.
	OnCommit func(Entry)
	// OnGlobalCommit observes entries committed to the global log (learned
	// through replicated global state, hence locally durable).
	OnGlobalCommit func(Entry)
	// CommitBuffer sizes the commit channels (default 1024).
	CommitBuffer int
	// ApplyQueueSize bounds the commit→apply pipeline in drained output
	// batches (0 = a 256-batch default); see Options.ApplyQueueSize.
	ApplyQueueSize int
	// Trace, when set, enables the protocol flight recorder across both
	// consensus layers: local and global events (elections, appends,
	// snapshot streams, batching, global ordering, replay) share one ring
	// so a site's trace reads as a single narrative. Retrieve with
	// Recorder, serve with ServeDebug. Nil disables recording.
	Trace *TraceOptions
}

// CRaftNode is a C-Raft site running on real time: a Fast Raft member of
// its cluster that, while leading the cluster, also represents it in
// inter-cluster consensus. Propose copies the caller's buffer; committed
// entries, local and global, share the log's Data, read-only.
type CRaftNode struct {
	host          *runtime.Host
	cn            *craft.Node
	aud           *audit.Auditor
	commits       chan Entry
	globalCommits chan Entry
	proposalWaiters
	readWaiters
}

// NewCRaftNode builds and starts a C-Raft site.
func NewCRaftNode(opts CRaftOptions) (*CRaftNode, error) {
	if opts.ID == types.None || opts.Cluster == types.None {
		return nil, errors.New("hraft: CRaftOptions.ID and Cluster are required")
	}
	if opts.Transport == nil {
		return nil, errors.New("hraft: CRaftOptions.Transport is required")
	}
	if opts.Storage == nil {
		opts.Storage = NewMemoryStorage()
	}
	seed := mixSeed(opts.Seed, opts.ID)
	rec, aud := newRecorder(opts.ID, opts.Trace)
	cn, err := craft.New(craft.Config{
		ID:                       opts.ID,
		Cluster:                  opts.Cluster,
		ClusterBootstrap:         types.NewConfig(opts.ClusterPeers...),
		GlobalBootstrap:          types.NewConfig(opts.GlobalClusters...),
		Storage:                  opts.Storage,
		BatchSize:                opts.BatchSize,
		BatchDelay:               opts.BatchDelay,
		LocalHeartbeat:           opts.LocalHeartbeat,
		GlobalHeartbeat:          opts.GlobalHeartbeat,
		SnapshotThreshold:        opts.SnapshotThreshold,
		AppSnapshotter:           opts.Snapshotter,
		MaxEntriesPerAppend:      opts.MaxEntriesPerAppend,
		MaxInflightAppends:       opts.MaxInflightAppends,
		MaxInflightBytes:         opts.MaxInflightBytes,
		MaxSnapshotChunk:         opts.MaxSnapshotChunk,
		MaxInflightProposalBytes: opts.MaxInflightProposalBytes,
		MaxInflightBatches:       opts.MaxInflightBatches,
		SessionTTL:               opts.SessionTTL,
		Rand:                     rand.New(rand.NewSource(seed)),
		Recorder:                 rec,
	})
	if err != nil {
		return nil, fmt.Errorf("hraft: %w", err)
	}
	buf := opts.CommitBuffer
	if buf <= 0 {
		buf = 1024
	}
	n := &CRaftNode{
		cn:              cn,
		aud:             aud,
		commits:         make(chan Entry, buf),
		globalCommits:   make(chan Entry, buf),
		proposalWaiters: newProposalWaiters(),
		readWaiters:     newReadWaiters(),
	}
	n.host = runtime.NewHost(cn, opts.Transport, runtime.Callbacks{
		OnCommit: func(e Entry) {
			if opts.OnCommit != nil {
				opts.OnCommit(e)
			}
			n.commits <- e
		},
		OnGlobalCommit: func(e Entry) {
			if opts.OnGlobalCommit != nil {
				opts.OnGlobalCommit(e)
			}
			n.globalCommits <- e
		},
		OnResolve:      n.resolve,
		OnReadDone:     n.resolveRead,
		ApplyQueueSize: opts.ApplyQueueSize,
		Recorder:       rec,
	})
	wireDurability(n.host, opts.Storage, rec)
	return n, nil
}

// ID returns the site identity.
func (n *CRaftNode) ID() NodeID { return n.cn.ID() }

// ClusterID returns the cluster identity.
func (n *CRaftNode) ClusterID() NodeID { return n.cn.ClusterID() }

// Role returns the site's local-consensus role.
func (n *CRaftNode) Role() Role {
	var r Role
	n.host.Do(func(_ time.Duration, _ runtime.Machine) { r = n.cn.Role() })
	return r
}

// IsClusterLeader reports whether this site currently leads its cluster
// (and therefore represents it globally).
func (n *CRaftNode) IsClusterLeader() bool {
	var ok bool
	n.host.Do(func(_ time.Duration, _ runtime.Machine) { ok = n.cn.IsGlobalMember() })
	return ok
}

// GlobalCommitIndex returns the highest global-log index this site knows
// committed.
func (n *CRaftNode) GlobalCommitIndex() Index {
	var i Index
	n.host.Do(func(_ time.Duration, _ runtime.Machine) { i = n.cn.GlobalCommitIndex() })
	return i
}

// Commits streams locally committed entries (Data read-only); it must be
// consumed.
func (n *CRaftNode) Commits() <-chan Entry { return n.commits }

// Metrics returns a snapshot of the site's monotonic counters: the local
// consensus instance's under "local.", the global instance's under
// "global." and batch-layer counters under "craft.".
func (n *CRaftNode) Metrics() map[string]uint64 {
	var m map[string]uint64
	n.host.Do(func(_ time.Duration, _ runtime.Machine) { m = n.cn.Metrics() })
	n.aud.MergeMetrics(m)
	return m
}

// GlobalCommits streams entries committed to the global log (Data
// read-only); it must be consumed.
func (n *CRaftNode) GlobalCommits() <-chan Entry { return n.globalCommits }

// Propose submits an application entry to intra-cluster consensus and
// waits for the local commit (the paper's closed-loop semantics); the
// cluster leader later batches it into the global log. Note that a retry
// after a lost acknowledgment can commit twice; use
// OpenSession/Session.Propose for exactly-once semantics.
func (n *CRaftNode) Propose(ctx context.Context, data []byte) (Index, error) {
	return n.await(ctx, n.host, func(now time.Duration) ProposalID {
		return n.cn.Propose(now, data)
	})
}

// ProposeAsync submits an application entry without waiting.
func (n *CRaftNode) ProposeAsync(data []byte) ProposalID {
	var pid ProposalID
	n.host.Do(func(now time.Duration, _ runtime.Machine) {
		pid = n.cn.Propose(now, data)
	})
	return pid
}

// JoinGlobal requests that this cluster join the global configuration (a
// new cluster forming, paper Section V-C). It takes effect once this site
// leads its cluster.
func (n *CRaftNode) JoinGlobal(contacts []NodeID) {
	n.host.Do(func(now time.Duration, _ runtime.Machine) {
		n.cn.JoinGlobal(now, contacts)
	})
}

// Stop halts the site (a crash; storage remains for restart).
func (n *CRaftNode) Stop() {
	n.markStopped()
	n.markReadsStopped()
	n.host.Stop()
}

// RegisterClusterEndpoint wires an in-process network so messages
// addressed to a cluster ID reach the given site (call it for the site
// expected to lead, or refresh it after failovers). Deployments with real
// transports solve this with their own routing (e.g. a shared UDP address
// list per cluster).
func RegisterClusterEndpoint(net *InProcNetwork, cluster NodeID, node *CRaftNode) {
	ep := net.Endpoint(cluster)
	ep.SetHandler(func(env Envelope) {
		node.host.Do(func(now time.Duration, m runtime.Machine) {
			m.Step(now, env)
		})
	})
}
