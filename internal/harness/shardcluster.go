package harness

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"github.com/hraft-io/hraft/internal/audit"
	"github.com/hraft-io/hraft/internal/core/fastraft"
	"github.com/hraft-io/hraft/internal/shard"
	"github.com/hraft-io/hraft/internal/simnet"
	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// shardMetaGroup is the reserved ShardMemory group holding each process's
// routing journal; it never appears in the range table.
const shardMetaGroup types.GroupID = "\x00meta"

// ShardOptions configures a simulated multi-group (sharded) cluster: every
// process hosts one shard.Manager over one ShardMemory store, so all groups
// on a process share its fsync window, its crash window and its network
// endpoint — the deployment shape the shard package exists for.
type ShardOptions struct {
	// Procs are the member processes; every group runs on all of them.
	Procs []types.NodeID
	// Groups is the initial range table (see shard.GroupSpec).
	Groups []shard.GroupSpec
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
	// SnapshotThreshold enables per-group log compaction (0 = disabled).
	SnapshotThreshold int
	// SyncWindow is the virtual-time shared fsync interval (0 = 2ms).
	SyncWindow time.Duration
	// Audit selects the safety-auditor mode; the zero value is strict, with
	// one recorder per (process, group) so leases audit per group.
	Audit AuditMode
	// TraceRing overrides the per-recorder ring capacity (0 = default).
	TraceRing int
	// SplitSeed seeds daughter groups at split apply (see shard.Config).
	SplitSeed func(parent, daughter types.GroupID, pivot string) []byte
	// MaxBatchBytes bounds coalesced ShardBatch payloads (0 = shard default).
	MaxBatchBytes int
	// RetireDrain keeps merged-away cores alive this long (0 = shard default).
	RetireDrain time.Duration
}

// ShardHost is one process: a shard.Manager over shared storage, bound to
// the simulated network.
type ShardHost struct {
	c   *ShardCluster
	id  types.NodeID
	mgr *shard.Manager
	sm  *storage.ShardMemory
	// recs holds the per-group flight recorders, reused across restarts so
	// one ring spans a group's whole lifetime on this process.
	recs      map[types.GroupID]*trace.Recorder
	alive     bool
	wake      *simnet.Timer
	syncTimer *simnet.Timer

	proposeStart map[types.ProposalID]time.Duration
	resolved     map[types.ProposalID]types.Index
	readDone     map[uint64]types.ReadDone
	// appliedCount counts KindNormal applications per (group, payload) on
	// this process — the double-apply detector for lifecycle tests.
	appliedCount map[types.GroupID]map[string]int
}

// ID returns the process identity.
func (h *ShardHost) ID() types.NodeID { return h.id }

// Manager returns the hosted shard manager (per-group state lives behind
// Manager.Group). Only touch it from test code between scheduler steps.
func (h *ShardHost) Manager() *shard.Manager { return h.mgr }

// Alive reports whether the process is running.
func (h *ShardHost) Alive() bool { return h.alive }

// Resolved returns the resolution index of a tracked proposal, if resolved.
func (h *ShardHost) Resolved(pid types.ProposalID) (types.Index, bool) {
	idx, ok := h.resolved[pid]
	return idx, ok
}

// ReadResult returns the resolution of a tracked read, if it resolved.
func (h *ShardHost) ReadResult(token uint64) (types.ReadDone, bool) {
	d, ok := h.readDone[token]
	return d, ok
}

// AppliedCount returns how many times this process applied the given
// KindNormal payload in the given group (1 = exactly-once).
func (h *ShardHost) AppliedCount(gid types.GroupID, payload string) int {
	return h.appliedCount[gid][payload]
}

// ShardCluster simulates a set of processes each hosting every consensus
// group of a sharded deployment.
type ShardCluster struct {
	opts ShardOptions
	// Sched is the virtual-time scheduler.
	Sched *simnet.Scheduler
	// Net is the simulated network.
	Net *simnet.Network
	// Safety accumulates invariant violations, keyed per group.
	Safety *SafetyChecker
	// Audit is the streaming safety auditor over every (process, group)
	// recorder (nil when Options.Audit is AuditOff).
	Audit *audit.Auditor

	hosts map[types.NodeID]*ShardHost
}

// NewShardCluster builds and starts a sharded cluster.
func NewShardCluster(opts ShardOptions) (*ShardCluster, error) {
	if len(opts.Procs) == 0 {
		return nil, fmt.Errorf("harness: shard cluster needs processes")
	}
	sched := simnet.NewScheduler()
	net := simnet.NewNetwork(sched, opts.Topology, opts.Seed)
	net.LossProb = opts.LossProb
	net.DupProb = opts.DupProb
	c := &ShardCluster{
		opts:   opts,
		Sched:  sched,
		Net:    net,
		Safety: NewSafetyChecker(),
		hosts:  make(map[types.NodeID]*ShardHost),
	}
	c.Audit = newAuditor(opts.Audit)
	for _, id := range opts.Procs {
		h := &ShardHost{
			c:            c,
			id:           id,
			sm:           storage.NewShardMemory(),
			recs:         make(map[types.GroupID]*trace.Recorder),
			proposeStart: make(map[types.ProposalID]time.Duration),
			resolved:     make(map[types.ProposalID]types.Index),
			readDone:     make(map[uint64]types.ReadDone),
			appliedCount: make(map[types.GroupID]map[string]int),
		}
		mgr, err := c.newManager(h)
		if err != nil {
			return nil, err
		}
		h.mgr = mgr
		h.alive = true
		c.hosts[id] = h
		c.register(h)
		c.drain(h)
	}
	return c, nil
}

// coreSeed derives a deterministic per-(process, group) RNG seed that is
// stable across restarts, so a recovered core re-randomizes identically for
// a given run seed.
func (c *ShardCluster) coreSeed(id types.NodeID, gid types.GroupID) int64 {
	f := fnv.New64a()
	f.Write([]byte(id))
	f.Write([]byte{0})
	f.Write([]byte(gid))
	return c.opts.Seed ^ int64(f.Sum64())
}

// newManager builds (or rebuilds, after a crash) a process's manager over
// its surviving ShardMemory.
func (c *ShardCluster) newManager(h *ShardHost) (*shard.Manager, error) {
	boot := types.NewConfig(c.opts.Procs...)
	return shard.New(shard.Config{
		ProcessID: h.id,
		Groups:    c.opts.Groups,
		Storage:   func(gid types.GroupID) storage.Storage { return h.sm.Group(gid) },
		Meta:      h.sm.Group(shardMetaGroup),
		SplitSeed: c.opts.SplitSeed,
		NewCore: func(gid types.GroupID, gboot types.Config, st storage.Storage) (*fastraft.Node, error) {
			rec := h.recs[gid]
			if rec == nil && c.Audit != nil {
				// One recorder per (process, group): lease auditing needs a
				// distinct instance label per group timeline.
				rec = trace.New(trace.Config{
					Node: string(h.id) + "/" + string(gid),
					Size: c.opts.TraceRing,
				})
				rec.SetGroup(string(gid))
				c.Audit.AttachTo(rec)
				h.recs[gid] = rec
			}
			return fastraft.New(fastraft.Config{
				ID:                 h.id,
				Bootstrap:          gboot,
				Storage:            st,
				HeartbeatInterval:  c.opts.HeartbeatInterval,
				ElectionTimeoutMin: c.opts.ElectionTimeoutMin,
				ElectionTimeoutMax: c.opts.ElectionTimeoutMax,
				ProposalTimeout:    c.opts.ProposalTimeout,
				SnapshotThreshold:  c.opts.SnapshotThreshold,
				Rand:               rand.New(rand.NewSource(c.coreSeed(h.id, gid))),
				Recorder:           rec,
			})
		},
		MaxBatchBytes: c.opts.MaxBatchBytes,
		RetireDrain:   c.opts.RetireDrain,
	}, boot)
}

func (c *ShardCluster) register(h *ShardHost) {
	c.Net.Register(h.id, func(env types.Envelope) {
		if !h.alive {
			return
		}
		h.mgr.Step(c.Sched.Now(), env)
		c.drain(h)
	})
}

// drain flushes a host's outputs into the network and the trackers, then
// re-arms its timers — the harness mirror of runtime.Host.drainLocked.
func (c *ShardCluster) drain(h *ShardHost) {
	for _, env := range h.mgr.DrainOutbox(nil) {
		c.Net.Send(env)
	}
	for _, ge := range h.mgr.DrainGroupCommitted(nil) {
		c.Safety.RecordCommit(string(ge.Group), h.id, ge.Entry)
		if ge.Entry.Kind == types.KindNormal {
			g := h.appliedCount[ge.Group]
			if g == nil {
				g = make(map[string]int)
				h.appliedCount[ge.Group] = g
			}
			g[string(ge.Entry.Data)]++
		}
	}
	for _, gid := range h.mgr.Groups() {
		core := h.mgr.Group(gid)
		if core != nil && core.Role() == types.RoleLeader {
			c.Safety.RecordLeader(string(gid), core.Term(), h.id)
		}
	}
	for _, gr := range h.mgr.DrainGroupResolved(nil) {
		h.resolved[gr.Resolution.PID] = gr.Resolution.Index
		delete(h.proposeStart, gr.Resolution.PID)
	}
	for _, rd := range h.mgr.DrainGroupReadDone(nil) {
		h.readDone[rd.Done.ID] = rd.Done
	}
	c.schedule(h)
	c.armSync(h)
}

func (c *ShardCluster) syncWindow() time.Duration {
	if c.opts.SyncWindow > 0 {
		return c.opts.SyncWindow
	}
	return 2 * time.Millisecond
}

// armSync schedules the shared fsync-window close: one Sync makes every
// group's buffered writes durable at once and one SyncDone fan-out releases
// every group's gated outputs — the cross-group group-commit the shared WAL
// provides on real disks.
func (c *ShardCluster) armSync(h *ShardHost) {
	if !h.alive || !h.sm.Pending() || h.syncTimer != nil {
		return
	}
	h.syncTimer = c.Sched.At(c.Sched.Now()+c.syncWindow(), func() {
		h.syncTimer = nil
		if !h.alive {
			return
		}
		if err := h.sm.Sync(); err != nil {
			panic(fmt.Sprintf("harness: sync %s: %v", h.id, err))
		}
		h.mgr.SyncDone(c.Sched.Now(), h.sm.DurableLSN())
		c.drain(h)
	})
}

// schedule re-arms the single wake timer from the manager's earliest
// deadline across all groups — the shared ticker wheel.
func (c *ShardCluster) schedule(h *ShardHost) {
	if h.wake != nil {
		h.wake.Cancel()
		h.wake = nil
	}
	if !h.alive {
		return
	}
	d := h.mgr.NextDeadline()
	if d == 0 {
		return
	}
	h.wake = c.Sched.At(d, func() {
		if !h.alive {
			return
		}
		h.mgr.Tick(c.Sched.Now())
		c.drain(h)
	})
}

// Host returns the process for id (nil if unknown).
func (c *ShardCluster) Host(id types.NodeID) *ShardHost { return c.hosts[id] }

// Hosts returns all processes.
func (c *ShardCluster) Hosts() map[types.NodeID]*ShardHost { return c.hosts }

// RunFor advances virtual time by d.
func (c *ShardCluster) RunFor(d time.Duration) {
	c.Sched.RunUntil(c.Sched.Now() + d)
}

// RunUntil steps the simulation until cond holds or virtual time passes
// deadline; it reports whether cond held.
func (c *ShardCluster) RunUntil(cond func() bool, deadline time.Duration) bool {
	for {
		if cond() {
			return true
		}
		if c.Sched.Now() > deadline {
			return false
		}
		if !c.Sched.Step() {
			return cond()
		}
	}
}

// GroupLeader returns the alive process leading the given group at the
// highest term, if any.
func (c *ShardCluster) GroupLeader(gid types.GroupID) (*ShardHost, bool) {
	var best *ShardHost
	var bestTerm types.Term
	for _, h := range c.hosts {
		if !h.alive {
			continue
		}
		core := h.mgr.Group(gid)
		if core == nil || core.Role() != types.RoleLeader {
			continue
		}
		if best == nil || core.Term() > bestTerm {
			best, bestTerm = h, core.Term()
		}
	}
	return best, best != nil
}

// WaitForGroupLeader runs until the given group has a leader.
func (c *ShardCluster) WaitForGroupLeader(gid types.GroupID, deadline time.Duration) (types.NodeID, bool) {
	ok := c.RunUntil(func() bool {
		_, ok := c.GroupLeader(gid)
		return ok
	}, deadline)
	if !ok {
		return types.None, false
	}
	h, _ := c.GroupLeader(gid)
	return h.id, true
}

// WaitForAllLeaders runs until every live group on the reference process
// has a leader somewhere.
func (c *ShardCluster) WaitForAllLeaders(deadline time.Duration) bool {
	ref := c.hosts[c.opts.Procs[0]]
	return c.RunUntil(func() bool {
		for _, gid := range ref.mgr.Groups() {
			if _, ok := c.GroupLeader(gid); !ok {
				return false
			}
		}
		return true
	}, deadline)
}

// ProposeKey submits a payload routed by key from the given process,
// returning the owning group alongside the proposal ID.
func (c *ShardCluster) ProposeKey(id types.NodeID, key string, data []byte) (types.GroupID, types.ProposalID, error) {
	h := c.hosts[id]
	if h == nil || !h.alive {
		return "", types.ProposalID{}, fmt.Errorf("harness: process %s not running", id)
	}
	now := c.Sched.Now()
	gid, pid := h.mgr.ProposeKey(now, key, data)
	h.proposeStart[pid] = now
	c.drain(h)
	return gid, pid, nil
}

// Read registers a read routed by key on the given process.
func (c *ShardCluster) Read(id types.NodeID, key string, consistency types.ReadConsistency) (types.GroupID, uint64, error) {
	h := c.hosts[id]
	if h == nil || !h.alive {
		return "", 0, fmt.Errorf("harness: process %s not running", id)
	}
	gid, token := h.mgr.Read(c.Sched.Now(), key, consistency)
	c.drain(h)
	return gid, token, nil
}

// AwaitResolution runs until the proposal tracked on process id resolves.
func (c *ShardCluster) AwaitResolution(id types.NodeID, pid types.ProposalID, deadline time.Duration) (types.Index, bool) {
	h := c.hosts[id]
	if h == nil {
		return 0, false
	}
	ok := c.RunUntil(func() bool {
		_, done := h.resolved[pid]
		return done
	}, deadline)
	if !ok {
		return 0, false
	}
	return h.resolved[pid], true
}

// AwaitRead runs until the read tracked on process id resolves.
func (c *ShardCluster) AwaitRead(id types.NodeID, token uint64, deadline time.Duration) (types.ReadDone, bool) {
	h := c.hosts[id]
	if h == nil {
		return types.ReadDone{}, false
	}
	ok := c.RunUntil(func() bool {
		_, done := h.readDone[token]
		return done
	}, deadline)
	if !ok {
		return types.ReadDone{}, false
	}
	return h.readDone[token], true
}

// Split proposes a range split through the process currently leading the
// parent group (lifecycle entries need a leader or fast-track quorum like
// any other proposal; proposing at the leader keeps tests deterministic).
func (c *ShardCluster) Split(daughter types.GroupID, pivot string) (types.NodeID, types.ProposalID, error) {
	ref := c.hosts[c.opts.Procs[0]]
	parent := ref.mgr.Route(pivot)
	h, ok := c.GroupLeader(parent)
	if !ok {
		return types.None, types.ProposalID{}, fmt.Errorf("harness: group %q has no leader", parent)
	}
	pid, err := h.mgr.Split(c.Sched.Now(), daughter, pivot)
	if err != nil {
		return types.None, types.ProposalID{}, err
	}
	c.drain(h)
	return h.id, pid, nil
}

// Merge proposes folding the given group into its left neighbor, through
// the process currently leading it.
func (c *ShardCluster) Merge(right types.GroupID) (types.NodeID, types.ProposalID, error) {
	h, ok := c.GroupLeader(right)
	if !ok {
		return types.None, types.ProposalID{}, fmt.Errorf("harness: group %q has no leader", right)
	}
	pid, err := h.mgr.Merge(c.Sched.Now(), right)
	if err != nil {
		return types.None, types.ProposalID{}, err
	}
	c.drain(h)
	return h.id, pid, nil
}

// TransferLeader orders the given group's leader to hand off to target.
func (c *ShardCluster) TransferLeader(gid types.GroupID, target types.NodeID) error {
	h, ok := c.GroupLeader(gid)
	if !ok {
		return fmt.Errorf("harness: group %q has no leader", gid)
	}
	if !h.mgr.TransferLeader(gid, target) {
		return fmt.Errorf("harness: transfer of %q to %s refused", gid, target)
	}
	c.drain(h)
	return nil
}

// Crash stops a process without warning: every group on it goes down
// together and the shared unsynced window is lost, like one machine losing
// its page cache.
func (c *ShardCluster) Crash(id types.NodeID) {
	h := c.hosts[id]
	if h == nil || !h.alive {
		return
	}
	h.alive = false
	if h.wake != nil {
		h.wake.Cancel()
		h.wake = nil
	}
	if h.syncTimer != nil {
		h.syncTimer.Cancel()
		h.syncTimer = nil
	}
	h.sm.Crash()
	c.Net.Unregister(id)
	for gid := range h.recs {
		c.Audit.NodeDown(string(id) + "/" + string(gid))
	}
}

// Restart brings a crashed process back: the manager rebuilds from the
// surviving ShardMemory — meta journal replays the routing table, every
// recovered group reopens its core.
func (c *ShardCluster) Restart(id types.NodeID) error {
	h := c.hosts[id]
	if h == nil {
		return fmt.Errorf("harness: unknown process %s", id)
	}
	if h.alive {
		return fmt.Errorf("harness: process %s already running", id)
	}
	mgr, err := c.newManager(h)
	if err != nil {
		return err
	}
	h.mgr = mgr
	h.alive = true
	h.proposeStart = make(map[types.ProposalID]time.Duration)
	h.resolved = make(map[types.ProposalID]types.Index)
	h.readDone = make(map[uint64]types.ReadDone)
	c.register(h)
	c.drain(h)
	return nil
}
