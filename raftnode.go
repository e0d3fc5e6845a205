package hraft

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/hraft-io/hraft/internal/audit"
	"github.com/hraft-io/hraft/internal/raft"
	"github.com/hraft-io/hraft/internal/runtime"
	"github.com/hraft-io/hraft/internal/types"
)

// RaftNode is a classic Raft site — the paper's baseline — exposed so
// applications can compare protocols under identical transports and
// workloads. It supports static membership only (the paper's baseline
// scope); use Node (Fast Raft) for dynamic networks. Propose copies the
// caller's buffer; committed entries share the log's Data, read-only.
type RaftNode struct {
	host    *runtime.Host
	rn      *raft.Node
	aud     *audit.Auditor
	commits chan Entry
	proposalWaiters
	readWaiters
}

// NewRaftNode builds and starts a classic Raft node. The Options fields
// MemberTimeoutRounds and DisableFastTrack do not apply and are ignored.
func NewRaftNode(opts Options) (*RaftNode, error) {
	if opts.ID == types.None {
		return nil, fmt.Errorf("hraft: Options.ID is required")
	}
	if opts.Transport == nil {
		return nil, fmt.Errorf("hraft: Options.Transport is required")
	}
	if opts.Storage == nil {
		opts.Storage = NewMemoryStorage()
	}
	rec, aud := newRecorder(opts.ID, opts.Trace)
	rn, err := raft.New(raft.Config{
		ID:                  opts.ID,
		Bootstrap:           types.NewConfig(opts.Peers...),
		Storage:             opts.Storage,
		HeartbeatInterval:   opts.HeartbeatInterval,
		ElectionTimeoutMin:  opts.ElectionTimeoutMin,
		ElectionTimeoutMax:  opts.ElectionTimeoutMax,
		ProposalTimeout:     opts.ProposalTimeout,
		SnapshotThreshold:   opts.SnapshotThreshold,
		Snapshotter:         opts.Snapshotter,
		MaxEntriesPerAppend: opts.MaxEntriesPerAppend,
		MaxInflightAppends:  opts.MaxInflightAppends,
		MaxInflightBytes:    opts.MaxInflightBytes,
		MaxSnapshotChunk:    opts.MaxSnapshotChunk,
		SessionTTL:          opts.SessionTTL,
		Rand:                rand.New(rand.NewSource(mixSeed(opts.Seed, opts.ID))),
		Recorder:            rec,
	})
	if err != nil {
		return nil, fmt.Errorf("hraft: %w", err)
	}
	buf := opts.CommitBuffer
	if buf <= 0 {
		buf = 1024
	}
	n := &RaftNode{
		rn:              rn,
		aud:             aud,
		commits:         make(chan Entry, buf),
		proposalWaiters: newProposalWaiters(),
		readWaiters:     newReadWaiters(),
	}
	n.host = runtime.NewHost(rn, opts.Transport, runtime.Callbacks{
		OnCommit: func(e Entry) {
			if opts.OnCommit != nil {
				opts.OnCommit(e)
			}
			n.commits <- e
		},
		OnResolve:      n.resolve,
		OnReadDone:     n.resolveRead,
		ApplyQueueSize: opts.ApplyQueueSize,
		Recorder:       rec,
	})
	wireDurability(n.host, opts.Storage, rec)
	return n, nil
}

// ID returns the node's identity.
func (n *RaftNode) ID() NodeID { return n.rn.ID() }

// Role returns the node's current role.
func (n *RaftNode) Role() Role {
	var r Role
	n.host.Do(func(_ time.Duration, _ runtime.Machine) { r = n.rn.Role() })
	return r
}

// Leader returns the node's view of the current leader.
func (n *RaftNode) Leader() NodeID {
	var l NodeID
	n.host.Do(func(_ time.Duration, _ runtime.Machine) { l = n.rn.LeaderID() })
	return l
}

// Term returns the node's current term.
func (n *RaftNode) Term() Term {
	var t Term
	n.host.Do(func(_ time.Duration, _ runtime.Machine) { t = n.rn.Term() })
	return t
}

// CommitIndex returns the node's commit index.
func (n *RaftNode) CommitIndex() Index {
	var i Index
	n.host.Do(func(_ time.Duration, _ runtime.Machine) { i = n.rn.CommitIndex() })
	return i
}

// Commits streams committed entries (Data read-only) in log order; it
// must be consumed.
func (n *RaftNode) Commits() <-chan Entry { return n.commits }

// Metrics returns a snapshot of the node's monotonic replication counters
// (see Node.Metrics).
func (n *RaftNode) Metrics() map[string]uint64 {
	var m map[string]uint64
	n.host.Do(func(_ time.Duration, _ runtime.Machine) { m = n.rn.Metrics() })
	n.aud.MergeMetrics(m)
	return m
}

// Propose submits an entry and waits for it to commit. Note that a retry
// after a lost acknowledgment can commit twice; use
// OpenSession/Session.Propose for exactly-once semantics.
func (n *RaftNode) Propose(ctx context.Context, data []byte) (Index, error) {
	return n.await(ctx, n.host, func(now time.Duration) ProposalID {
		return n.rn.Propose(now, data)
	})
}

// ProposeAsync submits an entry without waiting.
func (n *RaftNode) ProposeAsync(data []byte) ProposalID {
	var pid ProposalID
	n.host.Do(func(now time.Duration, _ runtime.Machine) {
		pid = n.rn.Propose(now, data)
	})
	return pid
}

// Stop halts the node.
func (n *RaftNode) Stop() {
	n.markStopped()
	n.markReadsStopped()
	n.host.Stop()
}
