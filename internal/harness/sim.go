// Package harness runs consensus clusters on the deterministic simulator:
// it hosts classic Raft, Fast Raft and C-Raft state machines on simnet,
// drives closed-loop proposers, scripts churn (crashes, joins, silent
// leaves, partitions) and checks safety invariants continuously. The
// experiment harness in internal/bench is built on top of it.
//
// One virtual-time host loop (sim and node) runs under all three cluster
// types; Cluster, CraftCluster and ShardCluster only build their machines
// and record what they alone track.
package harness

import (
	"fmt"
	"time"

	"github.com/hraft-io/hraft/internal/audit"
	"github.com/hraft-io/hraft/internal/simnet"
	"github.com/hraft-io/hraft/internal/stats"
	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// machine is the sans-io surface the host loop drives: a Fast Raft node, a
// C-Raft site or a shard manager.
type machine interface {
	Step(now time.Duration, env types.Envelope)
	Tick(now time.Duration)
	// NextDeadline reports when the machine next needs Tick (0 = never).
	NextDeadline() time.Duration
	// SyncDone advances the storage durability horizon (see
	// internal/durable).
	SyncDone(now time.Duration, durableLSN uint64)
	DrainOutbox(dst []types.Envelope) []types.Envelope
	DrainResolved(dst []types.Resolution) []types.Resolution
	DrainReadDone(dst []types.ReadDone) []types.ReadDone
}

// deferred is group-commit storage: mutations buffer until Sync closes the
// fsync window, and Crash loses whatever had not synced
// (storage.GroupedMemory, storage.ShardMemory).
type deferred interface {
	Pending() bool
	Sync() error
	DurableLSN() uint64
	Crash()
}

// hooks is what a cluster type adds to the host loop for its nodes.
type hooks[M machine] interface {
	// boot rebuilds the machine from the node's stable storage (Restart).
	boot() (M, error)
	// record drains and records the outputs only this cluster type tracks
	// (commits, leadership, routing).
	record(now time.Duration)
	// down tells the auditor which recording instances died with the node.
	down()
}

// sim is the virtual-time host loop shared by the cluster types: one
// scheduler and network, and the checkers every node reports into.
type sim[M machine] struct {
	// Sched is the virtual-time scheduler.
	Sched *simnet.Scheduler
	// Net is the simulated network.
	Net *simnet.Network
	// Safety accumulates invariant violations.
	Safety *SafetyChecker
	// Latencies collects every tracked proposal resolution in the run.
	Latencies *stats.Series
	// Timeline records leadership changes, configuration changes and
	// churn events for scenario output.
	Timeline *Timeline
	// Audit is the streaming safety auditor attached to every recorder
	// (nil when the audit mode is AuditOff).
	Audit *audit.Auditor

	nodes map[types.NodeID]*node[M]
	// recs are every flight recorder the run made, for MergedTrace.
	recs []*trace.Recorder
	// noun names a node in error messages ("node", "site", "process").
	noun string
	// syncWindow is the virtual-time group-commit flush interval (0 = 2ms,
	// matching storage.WALOptions).
	syncWindow time.Duration
	// churnTimeline records crashes and restarts on the Timeline.
	churnTimeline bool
}

func newSim[M machine](noun string, topo *simnet.Topology, seed int64, loss, dup float64, mode AuditMode) *sim[M] {
	sched := simnet.NewScheduler()
	net := simnet.NewNetwork(sched, topo, seed)
	net.LossProb = loss
	net.DupProb = dup
	return &sim[M]{
		Sched:     sched,
		Net:       net,
		Safety:    NewSafetyChecker(),
		Latencies: &stats.Series{},
		Timeline:  NewTimeline(),
		Audit:     newAuditor(mode),
		nodes:     make(map[types.NodeID]*node[M]),
		noun:      noun,
	}
}

// node is one simulated process on the host loop, embedded in Host,
// CraftHost and ShardHost. Its stable storage outlives the machine across
// Crash/Restart.
type node[M machine] struct {
	s       *sim[M]
	id      types.NodeID
	hooks   hooks[M]
	machine M
	alive   bool
	wake    *simnet.Timer
	// durable is the node's group-commit storage (nil when writes are
	// synchronous); syncTimer is the armed fsync-window close.
	durable   deferred
	syncTimer *simnet.Timer
	// rec is the node's flight recorder (nil unless tracing or auditing;
	// shard processes record per group instead). It is reused across
	// Crash/Restart so one ring spans the node's lifetime.
	rec *trace.Recorder

	proposeStart map[types.ProposalID]time.Duration
	// resolved records the resolution index of every tracked proposal, so
	// tests can await and inspect outcomes (0 = session-rejected).
	resolved map[types.ProposalID]types.Index
	// readDone records the resolution of every tracked read.
	readDone map[uint64]types.ReadDone
	// OnResolve, when set, observes each local proposal resolution.
	OnResolve func(pid types.ProposalID, at, latency time.Duration)
	// OnCommit, when set, observes every entry this node applies (the
	// state-machine view: session duplicates never appear here).
	OnCommit func(e types.Entry)
}

// newNode returns a stopped node for id whose cluster type hooks in
// through h; start runs it.
func (s *sim[M]) newNode(id types.NodeID, h hooks[M]) node[M] {
	return node[M]{s: s, id: id, hooks: h}
}

// recorder builds a flight recorder attached to the auditor.
func (s *sim[M]) recorder(cfg trace.Config) *trace.Recorder {
	rec := trace.New(cfg)
	s.Audit.AttachTo(rec)
	s.recs = append(s.recs, rec)
	return rec
}

// ID returns the node's identity.
func (n *node[M]) ID() types.NodeID { return n.id }

// Alive reports whether the node is running.
func (n *node[M]) Alive() bool { return n.alive }

// Resolved returns the resolution index of a tracked proposal, if it
// resolved (ok=false while still pending).
func (n *node[M]) Resolved(pid types.ProposalID) (types.Index, bool) {
	idx, ok := n.resolved[pid]
	return idx, ok
}

// ReadResult returns the resolution of a tracked read, if it resolved.
func (n *node[M]) ReadResult(token uint64) (types.ReadDone, bool) {
	d, ok := n.readDone[token]
	return d, ok
}

// start runs m as the node's machine with fresh request tracking and
// connects it to the network; the caller drains it.
func (n *node[M]) start(m M) {
	n.machine, n.alive = m, true
	n.proposeStart = make(map[types.ProposalID]time.Duration)
	n.resolved = make(map[types.ProposalID]types.Index)
	n.readDone = make(map[uint64]types.ReadDone)
	n.s.nodes[n.id] = n
	n.s.Net.Register(n.id, n.deliver)
}

// deliver hands a network message to the running machine.
func (n *node[M]) deliver(env types.Envelope) {
	if !n.alive {
		return
	}
	n.machine.Step(n.s.Sched.Now(), env)
	n.drain()
}

// drain flushes the machine's outputs into the network, the cluster type's
// recorders and the request trackers, then re-arms the node's timers.
func (n *node[M]) drain() {
	s := n.s
	now := s.Sched.Now()
	for _, env := range n.machine.DrainOutbox(nil) {
		s.Net.Send(env)
	}
	n.hooks.record(now)
	for _, res := range n.machine.DrainResolved(nil) {
		n.resolved[res.PID] = res.Index
		start, ok := n.proposeStart[res.PID]
		if !ok {
			continue
		}
		delete(n.proposeStart, res.PID)
		lat := now - start
		s.Latencies.Add(now, lat)
		if n.OnResolve != nil {
			n.OnResolve(res.PID, now, lat)
		}
	}
	for _, d := range n.machine.DrainReadDone(nil) {
		n.readDone[d.ID] = d
	}
	n.schedule()
	n.armSync()
}

// schedule re-arms the node's wake timer from the machine's next deadline.
func (n *node[M]) schedule() {
	if n.wake != nil {
		n.wake.Cancel()
		n.wake = nil
	}
	if !n.alive {
		return
	}
	d := n.machine.NextDeadline()
	if d == 0 {
		return
	}
	n.wake = n.s.Sched.At(d, func() {
		if !n.alive {
			return
		}
		n.machine.Tick(n.s.Sched.Now())
		n.drain()
	})
}

// armSync schedules the fsync-window close for a node with unsynced
// buffered mutations; when it fires the buffered records become durable
// and the machine's gated outputs release (on a shard process, every
// group's at once — the cross-group group commit of a shared WAL).
func (n *node[M]) armSync() {
	if n.durable == nil || !n.alive || !n.durable.Pending() || n.syncTimer != nil {
		return
	}
	window := n.s.syncWindow
	if window <= 0 {
		window = 2 * time.Millisecond
	}
	n.syncTimer = n.s.Sched.At(n.s.Sched.Now()+window, func() {
		n.syncTimer = nil
		if !n.alive {
			return
		}
		if err := n.durable.Sync(); err != nil {
			panic(fmt.Sprintf("harness: sync %s: %v", n.id, err))
		}
		n.machine.SyncDone(n.s.Sched.Now(), n.durable.DurableLSN())
		n.drain()
	})
}

// do runs op on the running node id, then drains it.
func (s *sim[M]) do(id types.NodeID, op func(n *node[M], now time.Duration)) error {
	n := s.nodes[id]
	if n == nil || !n.alive {
		return fmt.Errorf("harness: %s %s not running", s.noun, id)
	}
	op(n, s.Sched.Now())
	n.drain()
	return nil
}

// propose submits a proposal on node id through op, recording its start
// time for latency measurement.
func (s *sim[M]) propose(id types.NodeID, op func(m M, now time.Duration) types.ProposalID) (pid types.ProposalID, err error) {
	err = s.do(id, func(n *node[M], now time.Duration) {
		pid = op(n.machine, now)
		n.proposeStart[pid] = now
	})
	return pid, err
}

// RunFor advances virtual time by d.
func (s *sim[M]) RunFor(d time.Duration) {
	s.Sched.RunUntil(s.Sched.Now() + d)
}

// RunUntil steps the simulation until cond holds or virtual time passes
// deadline; it reports whether cond held.
func (s *sim[M]) RunUntil(cond func() bool, deadline time.Duration) bool {
	for {
		if cond() {
			return true
		}
		if s.Sched.Now() > deadline {
			return false
		}
		if !s.Sched.Step() {
			return cond()
		}
	}
}

// AwaitResolution runs the simulation until the proposal tracked on node id
// resolves, returning its resolution index (0 = session-rejected).
func (s *sim[M]) AwaitResolution(id types.NodeID, pid types.ProposalID, deadline time.Duration) (types.Index, bool) {
	n := s.nodes[id]
	if n == nil {
		return 0, false
	}
	ok := s.RunUntil(func() bool {
		_, done := n.resolved[pid]
		return done
	}, deadline)
	if !ok {
		return 0, false
	}
	return n.resolved[pid], true
}

// AwaitRead runs the simulation until the read tracked on node id resolves,
// returning its outcome.
func (s *sim[M]) AwaitRead(id types.NodeID, token uint64, deadline time.Duration) (types.ReadDone, bool) {
	n := s.nodes[id]
	if n == nil {
		return types.ReadDone{}, false
	}
	ok := s.RunUntil(func() bool {
		_, done := n.readDone[token]
		return done
	}, deadline)
	if !ok {
		return types.ReadDone{}, false
	}
	return n.readDone[token], true
}

// Crash stops a node without warning (also used for silent leaves). Its
// stable storage survives for Restart, less whatever sat in an open fsync
// window, as on a machine losing its page cache.
func (s *sim[M]) Crash(id types.NodeID) {
	n := s.nodes[id]
	if n == nil || !n.alive {
		return
	}
	n.alive = false
	if n.wake != nil {
		n.wake.Cancel()
		n.wake = nil
	}
	if n.syncTimer != nil {
		n.syncTimer.Cancel()
		n.syncTimer = nil
	}
	if n.durable != nil {
		n.durable.Crash()
	}
	s.Net.Unregister(id)
	n.hooks.down()
	if s.churnTimeline {
		s.Timeline.Crash(s.Sched.Now(), id)
	}
}

// Restart brings a crashed node back from its stable storage.
func (s *sim[M]) Restart(id types.NodeID) error {
	n := s.nodes[id]
	if n == nil {
		return fmt.Errorf("harness: unknown %s %s", s.noun, id)
	}
	if n.alive {
		return fmt.Errorf("harness: %s %s already running", s.noun, id)
	}
	m, err := n.hooks.boot()
	if err != nil {
		return err
	}
	n.start(m)
	if s.churnTimeline {
		s.Timeline.Restart(s.Sched.Now(), id)
	}
	n.drain()
	return nil
}
