package hraft

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/hraft-io/hraft/internal/audit"
	"github.com/hraft-io/hraft/internal/core/fastraft"
	"github.com/hraft-io/hraft/internal/shard"
	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// GroupID identifies one consensus group of a sharded node.
type GroupID = types.GroupID

// ShardGroup names one initial group and the inclusive lower bound of its
// key range (the first group's Start must be "").
type ShardGroup = shard.GroupSpec

// ShardStorageFn maps a group to its stable storage view. All views should
// share one store (one WAL directory, one memory fabric) so fsyncs batch
// across groups; see OpenShardWAL.
type ShardStorageFn = func(gid GroupID) Storage

// OpenShardWAL opens one shared write-ahead-log directory for a sharded
// node: the returned fabric hands each group its own namespace inside the
// directory, every group's records ride the same segments and the same
// group-commit flusher (one fsync covers every group's batch), and the
// returned meta storage (the directory's flat namespace) carries the
// node's routing journal. Closing the meta storage closes the whole WAL.
func OpenShardWAL(path string, opt WALOptions) (ShardStorageFn, Storage, error) {
	w, err := storage.OpenWALOptions(path, opt)
	if err != nil {
		return nil, nil, err
	}
	return func(gid GroupID) Storage { return w.Group(gid) }, w, nil
}

// ShardCommit is one committed entry attributed to its group: fields Group
// (a GroupID) and Entry.
type ShardCommit = shard.Commit

// ShardOptions configures a sharded node: N consensus groups multiplexed
// over one process, one transport endpoint and one shared storage fabric.
type ShardOptions struct {
	// ID is this process's identity; every group's membership is in terms
	// of process IDs (required).
	ID NodeID
	// Peers is the initial voting membership of every group.
	Peers []NodeID
	// Groups is the initial range table (required). Keys route to the
	// group owning the greatest Start that is <= the key.
	Groups []ShardGroup
	// Transport connects the process to its peers (required). All groups
	// share it; same-destination messages coalesce into ShardBatch frames.
	Transport Transport
	// Storage supplies each group's stable storage view (default: an
	// independent in-memory store per group). Use OpenShardWAL for a
	// production fabric with cross-group fsync batching.
	Storage ShardStorageFn
	// Meta persists the routing journal so splits and merges survive
	// restarts (default: in-memory; OpenShardWAL returns the right one).
	Meta Storage
	// SplitSeed, when set, builds a daughter group's initial state image
	// at split apply (see shard.Config.SplitSeed).
	SplitSeed func(parent, daughter GroupID, pivot string) []byte
	// MaxBatchBytes bounds one coalesced ShardBatch (0 = 48 KiB).
	MaxBatchBytes int
	// RetireDrain keeps merged-away groups serving stragglers (0 = 1s).
	RetireDrain time.Duration
	// HeartbeatInterval is each group leader's tick period (0 = 100ms).
	HeartbeatInterval time.Duration
	// ElectionTimeoutMin/Max bound the randomized election timeout.
	ElectionTimeoutMin time.Duration
	// ElectionTimeoutMax must exceed ElectionTimeoutMin when set.
	ElectionTimeoutMax time.Duration
	// ProposalTimeout is the proposer's re-propose period.
	ProposalTimeout time.Duration
	// SnapshotThreshold enables per-group log compaction (0 = disabled).
	SnapshotThreshold int
	// MaxEntriesPerAppend caps AppendEntries payloads (0 = unlimited).
	MaxEntriesPerAppend int
	// MaxSnapshotChunk streams snapshots in bounded chunks (0 = whole).
	MaxSnapshotChunk int
	// Seed drives randomized timeouts (0 = time-based).
	Seed int64
	// OnCommit, when set, observes every committed entry with its group.
	OnCommit func(GroupID, Entry)
	// CommitBuffer sizes the Commits channel (default 1024).
	CommitBuffer int
	// Trace enables the flight recorder: one recorder per group (events
	// are group-tagged) plus the online safety auditor across all of them.
	Trace *TraceOptions
}

// ShardNode is a sharded Fast Raft process running on real time: many
// consensus groups behind one endpoint, one ticker wheel and one storage
// fabric. Keys route to groups by range; groups split, merge and move
// leadership at runtime. Propose copies the caller's buffer; committed
// entries share the log's Data, read-only.
type ShardNode struct {
	base[ShardCommit]
	mgr     *shard.Manager
	commits chan ShardCommit
}

// NewShardNode builds and starts a sharded node.
func NewShardNode(opts ShardOptions) (*ShardNode, error) {
	if err := checkRequired("ShardOptions", opts.ID, opts.Transport); err != nil {
		return nil, err
	}
	if opts.Storage == nil {
		mem := make(map[GroupID]Storage)
		opts.Storage = func(gid GroupID) Storage {
			st, ok := mem[gid]
			if !ok {
				st = NewMemoryStorage()
				mem[gid] = st
			}
			return st
		}
	}
	if opts.Meta == nil {
		opts.Meta = NewMemoryStorage()
	}
	var aud *audit.Auditor
	if opts.Trace != nil {
		aud = audit.New(audit.Options{})
	}
	seed := mixSeed(opts.Seed, opts.ID)
	recs := make(map[GroupID]*trace.Recorder)
	mgr, err := shard.New(shard.Config{
		ProcessID: opts.ID,
		Groups:    opts.Groups,
		Storage:   opts.Storage,
		Meta:      opts.Meta,
		SplitSeed: opts.SplitSeed,
		NewCore: func(gid GroupID, boot Membership, st Storage) (*fastraft.Node, error) {
			var rec *trace.Recorder
			if opts.Trace != nil {
				// One recorder per group: events are group-tagged and lease
				// auditing tracks each group's timeline separately.
				rec = trace.New(trace.Config{
					Node:       string(opts.ID) + "/" + string(gid),
					Size:       opts.Trace.Size,
					SlowOp:     opts.Trace.SlowOp,
					Logger:     opts.Trace.Logger,
					SampleRate: opts.Trace.SampleRate,
				})
				rec.SetGroup(string(gid))
				aud.AttachTo(rec)
				recs[gid] = rec
			}
			return fastraft.New(fastraft.Config{
				ID:                  opts.ID,
				Bootstrap:           boot,
				Storage:             st,
				HeartbeatInterval:   opts.HeartbeatInterval,
				ElectionTimeoutMin:  opts.ElectionTimeoutMin,
				ElectionTimeoutMax:  opts.ElectionTimeoutMax,
				ProposalTimeout:     opts.ProposalTimeout,
				SnapshotThreshold:   opts.SnapshotThreshold,
				MaxEntriesPerAppend: opts.MaxEntriesPerAppend,
				MaxSnapshotChunk:    opts.MaxSnapshotChunk,
				Rand:                rand.New(rand.NewSource(mixSeed(seed, NodeID(gid)))),
				Recorder:            rec,
			})
		},
		MaxBatchBytes: opts.MaxBatchBytes,
		RetireDrain:   opts.RetireDrain,
	}, types.NewConfig(opts.Peers...))
	if err != nil {
		return nil, fmt.Errorf("hraft: %w", err)
	}
	n := &ShardNode{mgr: mgr, commits: make(chan ShardCommit, commitBuffer(opts.CommitBuffer))}
	// The meta storage is the shared store's handle (OpenShardWAL returns
	// the WAL itself): its durability callbacks release every group's gated
	// outputs through one SyncDone fan-out.
	n.start(aud, nil, mgr, mgr.DrainCommitted, func(c ShardCommit) {
		if opts.OnCommit != nil {
			opts.OnCommit(c.Group, c.Entry)
		}
		n.commits <- c
	}, opts.Transport, opts.Meta)
	return n, nil
}

// ID returns the process identity.
func (n *ShardNode) ID() NodeID { return n.mgr.ID() }

// Groups returns the live group IDs in sorted order.
func (n *ShardNode) Groups() []GroupID {
	var out []GroupID
	n.host.Do(func(time.Duration) { out = n.mgr.Groups() })
	return out
}

// ShardRange is one row of the routing table.
type ShardRange struct {
	Start string  `json:"start"`
	Group GroupID `json:"group"`
}

// Ranges returns the routing table in key order.
func (n *ShardNode) Ranges() []ShardRange {
	var out []ShardRange
	n.host.Do(func(time.Duration) {
		for _, r := range n.mgr.Ranges() {
			out = append(out, ShardRange{Start: r.Start, Group: r.Group})
		}
	})
	return out
}

// Route returns the group currently owning key.
func (n *ShardNode) Route(key string) GroupID {
	var gid GroupID
	n.host.Do(func(time.Duration) { gid = n.mgr.Route(key) })
	return gid
}

// Commits streams committed entries (group-attributed, Data read-only) in
// per-group log order. The channel must be consumed.
func (n *ShardNode) Commits() <-chan ShardCommit { return n.commits }

// Propose routes data by key and waits for the owning group to commit it,
// returning the index within that group's log.
func (n *ShardNode) Propose(ctx context.Context, key string, data []byte) (Index, error) {
	return n.await(ctx, func(now time.Duration) ProposalID {
		_, pid := n.mgr.ProposeKey(now, key, data)
		return pid
	})
}

// ProposeAsync routes data by key and submits it without waiting,
// returning the owning group and the proposal ID.
func (n *ShardNode) ProposeAsync(key string, data []byte) (GroupID, ProposalID) {
	var gid GroupID
	var pid ProposalID
	n.host.Do(func(now time.Duration) {
		gid, pid = n.mgr.ProposeKey(now, key, data)
	})
	return gid, pid
}

// Read performs a linearizable read barrier in the group owning key,
// returning that group's linearization index.
func (n *ShardNode) Read(ctx context.Context, key string) (Index, error) {
	return n.ReadWith(ctx, key, ReadLinearizable)
}

// ReadWith performs a read barrier under the given consistency mode.
func (n *ShardNode) ReadWith(ctx context.Context, key string, c ReadConsistency) (Index, error) {
	return n.awaitRead(ctx, func(now time.Duration) uint64 {
		_, token := n.mgr.Read(now, key, c)
		return token
	})
}

// Split proposes carving the keys >= pivot out of their current group into
// a new group named daughter, and waits for the split entry to commit in
// the parent group. Every member then creates the daughter at the same log
// position.
func (n *ShardNode) Split(ctx context.Context, daughter GroupID, pivot string) (Index, error) {
	var splitErr error
	idx, err := n.await(ctx, func(now time.Duration) ProposalID {
		pid, err := n.mgr.Split(now, daughter, pivot)
		if err != nil {
			splitErr = err
		}
		return pid
	})
	if splitErr != nil {
		return 0, splitErr
	}
	return idx, err
}

// Merge proposes folding the named group's range into its left neighbor
// and waits for the merge entry to commit in the retiring group.
func (n *ShardNode) Merge(ctx context.Context, right GroupID) (Index, error) {
	var mergeErr error
	idx, err := n.await(ctx, func(now time.Duration) ProposalID {
		pid, err := n.mgr.Merge(now, right)
		if err != nil {
			mergeErr = err
		}
		return pid
	})
	if mergeErr != nil {
		return 0, mergeErr
	}
	return idx, err
}

// TransferLeader orders the named group's leadership to the target
// process. Returns false when this process does not lead that group or the
// target is not a member.
func (n *ShardNode) TransferLeader(gid GroupID, target NodeID) bool {
	var ok bool
	n.host.Do(func(time.Duration) {
		ok = n.mgr.TransferLeader(gid, target)
	})
	return ok
}

// GroupStatus is one group's consensus state on this process.
type GroupStatus struct {
	Group       GroupID `json:"group"`
	Start       string  `json:"start"`
	Role        string  `json:"role"`
	Term        uint64  `json:"term"`
	Leader      string  `json:"leader,omitempty"`
	CommitIndex uint64  `json:"commit_index"`
	LastIndex   uint64  `json:"last_index"`
	Pending     int     `json:"pending_proposals"`
}

// ShardStatus snapshots every live group's state (served as JSON at
// /debug/hraft/shards by DebugHandler).
func (n *ShardNode) ShardStatus() []GroupStatus {
	var out []GroupStatus
	n.host.Do(func(time.Duration) {
		starts := make(map[GroupID]string)
		for _, r := range n.mgr.Ranges() {
			starts[r.Group] = r.Start
		}
		for _, gid := range n.mgr.Groups() {
			core := n.mgr.Group(gid)
			if core == nil {
				continue
			}
			out = append(out, GroupStatus{
				Group:       gid,
				Start:       starts[gid],
				Role:        core.Role().String(),
				Term:        uint64(core.Term()),
				Leader:      string(core.LeaderID()),
				CommitIndex: uint64(core.CommitIndex()),
				LastIndex:   uint64(core.LastIndex()),
				Pending:     core.PendingProposals(),
			})
		}
	})
	return out
}

// DebugStatus implements StatusSource: the first group's consensus view
// plus process-wide commit progress; per-group detail is at
// /debug/hraft/shards (ShardStatus).
func (n *ShardNode) DebugStatus(traceTail int) DebugStatus {
	var ds DebugStatus
	n.host.Do(func(time.Duration) {
		ds = DebugStatus{
			Node:        string(n.mgr.ID()),
			Role:        n.mgr.Role().String(),
			Term:        uint64(n.mgr.Term()),
			Leader:      string(n.mgr.LeaderID()),
			CommitIndex: uint64(n.mgr.CommitIndex()),
		}
	})
	return ds
}

// DebugTop snapshots every live group's rate/latency aggregates (served
// at /debug/hraft/top): one row per group, each fed by that group's own
// recorder's sliding window. Safe from any goroutine.
func (n *ShardNode) DebugTop() DebugTop {
	var t DebugTop
	n.host.Do(func(now time.Duration) {
		t = DebugTop{Node: string(n.mgr.ID())}
		for _, gid := range n.mgr.Groups() {
			core := n.mgr.Group(gid)
			if core == nil {
				continue
			}
			g := DebugTopGroup{
				Group:       string(gid),
				Role:        core.Role().String(),
				Term:        uint64(core.Term()),
				Leader:      string(core.LeaderID()),
				CommitIndex: uint64(core.CommitIndex()),
				LastIndex:   uint64(core.LastIndex()),
			}
			g.CommitLag = g.LastIndex - g.CommitIndex
			g.Proposals = pickLive(core.Recorder().LiveStats(now), string(gid))
			g.CommitsFast, g.CommitsClassic = core.TrackCommits()
			t.Groups = append(t.Groups, g)
		}
	})
	fillTopMetrics(&t, n.Metrics())
	return t
}

// Metrics merges every group's core counters (summed) with the shard.*
// multiplexing counters: routed proposals, coalesced frames, batches sent,
// splits/merges applied, groups retired, leader transfers.
func (n *ShardNode) Metrics() map[string]uint64 {
	var m map[string]uint64
	n.host.Do(func(time.Duration) { m = n.mgr.Metrics() })
	n.aud.MergeMetrics(m)
	return m
}
