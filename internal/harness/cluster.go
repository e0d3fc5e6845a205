package harness

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/hraft-io/hraft/internal/core/fastraft"
	"github.com/hraft-io/hraft/internal/simnet"
	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// Kind selects the consensus implementation a cluster runs.
type Kind int

const (
	// KindRaft runs the classic Raft baseline: Fast Raft with the fast
	// track off (a classic proposer) and static membership.
	KindRaft Kind = iota + 1
	// KindFastRaft runs Fast Raft.
	KindFastRaft
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindRaft:
		return "raft"
	case KindFastRaft:
		return "fastraft"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// AuditMode selects how a cluster runs the online safety auditor.
type AuditMode int

const (
	// AuditStrict (the zero value: every harness test audits by default)
	// attaches the auditor to every node's event stream and panics on the
	// first invariant violation, with the violating event window in the
	// report — the failing test points at the exact breach.
	AuditStrict AuditMode = iota
	// AuditRecord attaches the auditor but only collects violations, for
	// tests that seed deliberate violations and inspect the report.
	AuditRecord
	// AuditOff disables auditing (benchmarks pin the recorder-free path).
	AuditOff
)

// Options configures a simulated flat cluster.
type Options struct {
	// Kind selects the protocol.
	Kind Kind
	// Nodes are the initial voting members.
	Nodes []types.NodeID
	// Seed drives all randomness in the run.
	Seed int64
	// Topology is the latency model (nil = single region).
	Topology *simnet.Topology
	// LossProb is the per-message drop probability.
	LossProb float64
	// DupProb is the per-message duplication probability.
	DupProb float64
	// HeartbeatInterval is the leader tick period (0 = paper default).
	HeartbeatInterval time.Duration
	// ElectionTimeoutMin/Max bound election timeouts (0 = derived).
	ElectionTimeoutMin time.Duration
	// ElectionTimeoutMax must exceed ElectionTimeoutMin when set.
	ElectionTimeoutMax time.Duration
	// ProposalTimeout is the proposer retry period (0 = derived).
	ProposalTimeout time.Duration
	// MemberTimeoutRounds is Fast Raft's silent-leave threshold.
	MemberTimeoutRounds int
	// SnapshotThreshold enables snapshotting + log compaction once this
	// many entries commit beyond the last snapshot (0 = disabled).
	SnapshotThreshold int
	// MaxEntriesPerAppend caps AppendEntries payloads (0 = unlimited).
	MaxEntriesPerAppend int
	// MaxInflightAppends bounds outstanding AppendEntries per follower
	// (0 = replica default).
	MaxInflightAppends int
	// MaxInflightBytes bounds outstanding encoded entry bytes per follower
	// (0 = replica default, 1 MiB).
	MaxInflightBytes int
	// MaxSnapshotChunk streams InstallSnapshot in chunks of at most this
	// many payload bytes (0 = whole snapshot in one message).
	MaxSnapshotChunk int
	// MaxInflightProposals caps unresolved broadcast proposals per node
	// (Fast Raft only; 0 = unlimited).
	MaxInflightProposals int
	// MaxInflightProposalBytes bounds the encoded payload bytes of
	// broadcast-but-unresolved proposals per node (Fast Raft only; 0 =
	// unlimited).
	MaxInflightProposalBytes int
	// SessionTTL expires idle client sessions (0 = no expiry).
	SessionTTL time.Duration
	// DisableFastTrack makes Fast Raft a classic proposer, every entry on
	// the classic track (ablation A1; KindRaft sets it).
	DisableFastTrack bool
	// Trace equips every node with a flight recorder; recorders survive
	// Crash/Restart so a node's ring spans its whole simulated lifetime.
	// Dump with MergedTrace or DumpTraceOnFailure.
	Trace bool
	// TraceRing overrides the per-node recorder ring capacity (0 = the
	// trace package default, or $HRAFT_TRACE_RING when set).
	TraceRing int
	// TraceSample samples every Nth proposal/read with a wire-propagated
	// trace ID (0 = no sampling); requires Trace.
	TraceSample int
	// Audit selects the safety-auditor mode; the zero value is strict
	// auditing, so every cluster is audited unless a test opts out.
	Audit AuditMode
	// GroupCommit runs every node on group-commit storage: mutations are
	// acknowledged immediately but buffer until a virtual-time fsync window
	// closes, and a Crash loses whatever had not synced — exactly like a
	// real machine losing its page cache. The cores' durability gates
	// (internal/durable) must therefore hold outputs correctly, which the
	// strict auditor checks across crash-restart.
	GroupCommit bool
	// SyncWindow is the virtual-time group-commit flush interval
	// (0 = 2ms, matching storage.WALOptions).
	SyncWindow time.Duration
}

// Host binds one consensus node to the simulated network, keeping its
// stable storage across restarts.
type Host struct {
	node[*fastraft.Node]
	c *Cluster
	// store is what machines are built over: a plain synchronous Memory, or
	// its group-commit wrapper under Options.GroupCommit.
	store storage.Storage
	// bootstrap is the node's static initial configuration, reused on
	// restarts (the stable-storage log takes precedence once it contains
	// configuration entries).
	bootstrap types.Config
}

// Machine returns the hosted state machine.
func (h *Host) Machine() *fastraft.Node { return h.machine }

// Cluster simulates a flat Raft or Fast Raft cluster. Its scheduler,
// network, checkers and run/await/crash methods come from the shared host
// loop.
type Cluster struct {
	*sim[*fastraft.Node]
	opts  Options
	hosts map[types.NodeID]*Host
	rng   *rand.Rand
}

// NewCluster builds and starts a cluster (nodes begin as followers with
// randomized election timers).
func NewCluster(opts Options) (*Cluster, error) {
	if len(opts.Nodes) == 0 {
		return nil, fmt.Errorf("harness: cluster needs nodes")
	}
	c := &Cluster{
		sim:   newSim[*fastraft.Node]("node", opts.Topology, opts.Seed, opts.LossProb, opts.DupProb, opts.Audit),
		opts:  opts,
		hosts: make(map[types.NodeID]*Host),
		rng:   rand.New(rand.NewSource(opts.Seed + 1)),
	}
	c.syncWindow, c.churnTimeline = opts.SyncWindow, true
	bootstrap := types.NewConfig(opts.Nodes...)
	for _, id := range opts.Nodes {
		if _, err := c.addHost(id, bootstrap); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// addHost creates, registers and schedules a host.
func (c *Cluster) addHost(id types.NodeID, bootstrap types.Config) (*Host, error) {
	h := &Host{c: c, bootstrap: bootstrap.Clone()}
	h.node = c.newNode(id, h)
	mem := storage.NewMemory()
	h.store = mem
	if c.opts.GroupCommit {
		g := storage.NewGroupedMemory(mem)
		h.store, h.durable = g, g
	}
	if c.opts.Trace || c.Audit != nil {
		h.rec = c.recorder(trace.Config{Node: string(id), Size: c.opts.TraceRing, SampleRate: c.opts.TraceSample})
	}
	m, err := h.boot()
	if err != nil {
		return nil, err
	}
	c.hosts[id] = h
	h.start(m)
	h.drain()
	return h, nil
}

// boot builds the node's machine over its stable storage.
func (h *Host) boot() (*fastraft.Node, error) {
	c := h.c
	cfg := fastraft.Config{
		ID:                       h.id,
		Bootstrap:                h.bootstrap,
		Storage:                  h.store,
		HeartbeatInterval:        c.opts.HeartbeatInterval,
		ElectionTimeoutMin:       c.opts.ElectionTimeoutMin,
		ElectionTimeoutMax:       c.opts.ElectionTimeoutMax,
		ProposalTimeout:          c.opts.ProposalTimeout,
		MemberTimeoutRounds:      c.opts.MemberTimeoutRounds,
		SnapshotThreshold:        c.opts.SnapshotThreshold,
		MaxEntriesPerAppend:      c.opts.MaxEntriesPerAppend,
		MaxInflightAppends:       c.opts.MaxInflightAppends,
		MaxInflightBytes:         c.opts.MaxInflightBytes,
		MaxSnapshotChunk:         c.opts.MaxSnapshotChunk,
		MaxInflightProposals:     c.opts.MaxInflightProposals,
		MaxInflightProposalBytes: c.opts.MaxInflightProposalBytes,
		SessionTTL:               c.opts.SessionTTL,
		DisableFastTrack:         c.opts.DisableFastTrack,
		Rand:                     rand.New(rand.NewSource(c.rng.Int63())),
		Recorder:                 h.rec,
	}
	switch c.opts.Kind {
	case KindRaft:
		// Classic Raft: the fast track off, static membership.
		cfg.DisableFastTrack, cfg.MemberTimeoutRounds, cfg.NoAutoRejoin = true, -1, true
	case KindFastRaft:
	default:
		return nil, fmt.Errorf("harness: unknown kind %v", c.opts.Kind)
	}
	return fastraft.New(cfg)
}

// record feeds the host's commits and leadership to the safety checker and
// the Timeline.
func (h *Host) record(now time.Duration) {
	c := h.c
	for _, e := range h.machine.DrainCommitted(nil) {
		c.Safety.RecordCommit("", h.id, e)
		if h.OnCommit != nil {
			h.OnCommit(e)
		}
		if e.Kind == types.KindConfig && e.Config != nil && h.machine.Role() == types.RoleLeader {
			c.Timeline.ObserveConfig(now, "", h.id, *e.Config)
		}
	}
	if h.machine.Role() == types.RoleLeader {
		c.Safety.RecordLeader("", h.machine.Term(), h.id)
		c.Timeline.ObserveLeader(now, "", h.machine.Term(), h.id)
	}
}

func (h *Host) down() { h.c.Audit.NodeDown(string(h.id)) }

// Host returns the host for id (nil if unknown).
func (c *Cluster) Host(id types.NodeID) *Host { return c.hosts[id] }

// Hosts returns all hosts.
func (c *Cluster) Hosts() map[types.NodeID]*Host { return c.hosts }

// Leader returns the alive leader with the highest term, if any.
func (c *Cluster) Leader() (*Host, bool) {
	var best *Host
	for _, h := range c.hosts {
		if !h.alive || h.machine.Role() != types.RoleLeader {
			continue
		}
		if best == nil || h.machine.Term() > best.machine.Term() {
			best = h
		}
	}
	return best, best != nil
}

// WaitForLeader runs until some node is leader, up to the deadline.
func (c *Cluster) WaitForLeader(deadline time.Duration) (types.NodeID, bool) {
	ok := c.RunUntil(func() bool {
		_, ok := c.Leader()
		return ok
	}, deadline)
	if !ok {
		return types.None, false
	}
	h, _ := c.Leader()
	return h.id, true
}

// Propose submits a payload from the given node, recording its start time
// for latency measurement.
func (c *Cluster) Propose(id types.NodeID, data []byte) (types.ProposalID, error) {
	return c.propose(id, func(m *fastraft.Node, now time.Duration) types.ProposalID {
		return m.Propose(now, data)
	})
}

// Read registers a read on the given node under the given consistency
// mode (0 = linearizable); await its linearization index with AwaitRead.
func (c *Cluster) Read(id types.NodeID, consistency types.ReadConsistency) (token uint64, err error) {
	err = c.do(id, func(n *node[*fastraft.Node], now time.Duration) {
		token = n.machine.Read(now, consistency)
	})
	return token, err
}

// OpenSession proposes a client-session registration from the given node;
// the returned proposal resolves with the new session's ID (await it with
// AwaitResolution).
func (c *Cluster) OpenSession(id types.NodeID) (types.ProposalID, error) {
	return c.propose(id, (*fastraft.Node).OpenSession)
}

// ProposeSession submits a payload under (sid, seq) from the given node.
func (c *Cluster) ProposeSession(id types.NodeID, sid types.SessionID, seq uint64, data []byte) (types.ProposalID, error) {
	return c.ProposeSessionAck(id, sid, seq, 0, data)
}

// ProposeSessionAck submits a payload under (sid, seq) carrying the
// client's retry floor ack (0 = none).
func (c *Cluster) ProposeSessionAck(id types.NodeID, sid types.SessionID, seq, ack uint64, data []byte) (types.ProposalID, error) {
	return c.propose(id, func(m *fastraft.Node, now time.Duration) types.ProposalID {
		return m.ProposeSession(now, sid, seq, ack, data)
	})
}

// AddNode starts a brand-new Fast Raft site and has it join via the given
// contacts (the paper's join protocol).
func (c *Cluster) AddNode(id types.NodeID, contacts []types.NodeID) (*Host, error) {
	if c.opts.Kind != KindFastRaft {
		return nil, fmt.Errorf("harness: AddNode requires Fast Raft")
	}
	if _, exists := c.hosts[id]; exists {
		return nil, fmt.Errorf("harness: node %s already exists", id)
	}
	h, err := c.addHost(id, types.NewConfig())
	if err != nil {
		return nil, err
	}
	h.machine.Join(c.Sched.Now(), contacts)
	h.drain()
	return h, nil
}

// Leave announces a graceful leave from the given Fast Raft site.
func (c *Cluster) Leave(id types.NodeID) error {
	if c.opts.Kind != KindFastRaft {
		return fmt.Errorf("harness: Leave requires Fast Raft")
	}
	return c.do(id, func(n *node[*fastraft.Node], now time.Duration) {
		n.machine.Leave(now)
	})
}

// CommitsAgree verifies that every alive node's committed prefix matches
// the safety checker's record (a liveness-flavoured sanity check used by
// tests).
func (c *Cluster) CommitsAgree() error {
	return c.Safety.Err()
}
