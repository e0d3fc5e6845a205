package harness

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

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
	node[shardMachine]
	c  *ShardCluster
	sm *storage.ShardMemory
	// recs holds the per-group flight recorders, reused across restarts so
	// one ring spans a group's whole lifetime on this process.
	recs map[types.GroupID]*trace.Recorder
	// appliedCount counts KindNormal applications per (group, payload) on
	// this process — the double-apply detector for lifecycle tests.
	appliedCount map[types.GroupID]map[string]int
}

// shardMachine adapts a shard.Manager to the host loop, which tracks
// resolutions and reads without their group tags.
type shardMachine struct{ *shard.Manager }

func (m shardMachine) DrainResolved(dst []types.Resolution) []types.Resolution {
	for _, gr := range m.DrainGroupResolved(nil) {
		dst = append(dst, gr.Resolution)
	}
	return dst
}

func (m shardMachine) DrainReadDone(dst []types.ReadDone) []types.ReadDone {
	for _, rd := range m.DrainGroupReadDone(nil) {
		dst = append(dst, rd.Done)
	}
	return dst
}

// Manager returns the hosted shard manager (per-group state lives behind
// Manager.Group). Only touch it from test code between scheduler steps.
func (h *ShardHost) Manager() *shard.Manager { return h.machine.Manager }

// AppliedCount returns how many times this process applied the given
// KindNormal payload in the given group (1 = exactly-once).
func (h *ShardHost) AppliedCount(gid types.GroupID, payload string) int {
	return h.appliedCount[gid][payload]
}

// ShardCluster simulates a set of processes each hosting every consensus
// group of a sharded deployment, on the shared host loop. Its Safety
// checker keys each group apart; its auditor watches every (process,
// group) recorder.
type ShardCluster struct {
	*sim[shardMachine]
	opts  ShardOptions
	hosts map[types.NodeID]*ShardHost
}

// NewShardCluster builds and starts a sharded cluster.
func NewShardCluster(opts ShardOptions) (*ShardCluster, error) {
	if len(opts.Procs) == 0 {
		return nil, fmt.Errorf("harness: shard cluster needs processes")
	}
	c := &ShardCluster{
		sim:   newSim[shardMachine]("process", opts.Topology, opts.Seed, opts.LossProb, opts.DupProb, opts.Audit),
		opts:  opts,
		hosts: make(map[types.NodeID]*ShardHost),
	}
	c.syncWindow = opts.SyncWindow
	for _, id := range opts.Procs {
		h := &ShardHost{
			c:            c,
			sm:           storage.NewShardMemory(),
			recs:         make(map[types.GroupID]*trace.Recorder),
			appliedCount: make(map[types.GroupID]map[string]int),
		}
		h.node = c.newNode(id, h)
		h.durable = h.sm
		m, err := h.boot()
		if err != nil {
			return nil, err
		}
		c.hosts[id] = h
		h.start(m)
		h.drain()
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

// boot builds (or rebuilds, after a crash) the process's manager over its
// surviving ShardMemory.
func (h *ShardHost) boot() (shardMachine, error) {
	c := h.c
	boot := types.NewConfig(c.opts.Procs...)
	mgr, err := shard.New(shard.Config{
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
				rec = c.recorder(trace.Config{
					Node:  string(h.id) + "/" + string(gid),
					Group: string(gid),
					Size:  c.opts.TraceRing,
				})
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
	return shardMachine{mgr}, err
}

// record feeds every group's commits and leadership to the safety checker
// and counts applications per payload.
func (h *ShardHost) record(time.Duration) {
	c := h.c
	for _, ge := range h.machine.DrainGroupCommitted(nil) {
		c.Safety.RecordCommit(string(ge.Group), h.id, ge.Entry)
		if h.OnCommit != nil {
			h.OnCommit(ge.Entry)
		}
		if ge.Entry.Kind == types.KindNormal {
			g := h.appliedCount[ge.Group]
			if g == nil {
				g = make(map[string]int)
				h.appliedCount[ge.Group] = g
			}
			g[string(ge.Entry.Data)]++
		}
	}
	for _, gid := range h.machine.Groups() {
		core := h.machine.Group(gid)
		if core != nil && core.Role() == types.RoleLeader {
			c.Safety.RecordLeader(string(gid), core.Term(), h.id)
		}
	}
}

// down retires every group's recording instance: the groups go down
// together.
func (h *ShardHost) down() {
	for gid := range h.recs {
		h.c.Audit.NodeDown(string(h.id) + "/" + string(gid))
	}
}

// Host returns the process for id (nil if unknown).
func (c *ShardCluster) Host(id types.NodeID) *ShardHost { return c.hosts[id] }

// Hosts returns all processes.
func (c *ShardCluster) Hosts() map[types.NodeID]*ShardHost { return c.hosts }

// GroupLeader returns the alive process leading the given group at the
// highest term, if any.
func (c *ShardCluster) GroupLeader(gid types.GroupID) (*ShardHost, bool) {
	var best *ShardHost
	var bestTerm types.Term
	for _, h := range c.hosts {
		if !h.alive {
			continue
		}
		core := h.machine.Group(gid)
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
		for _, gid := range ref.machine.Groups() {
			if _, ok := c.GroupLeader(gid); !ok {
				return false
			}
		}
		return true
	}, deadline)
}

// ProposeKey submits a payload routed by key from the given process,
// returning the owning group alongside the proposal ID.
func (c *ShardCluster) ProposeKey(id types.NodeID, key string, data []byte) (gid types.GroupID, pid types.ProposalID, err error) {
	pid, err = c.propose(id, func(m shardMachine, now time.Duration) types.ProposalID {
		gid, pid = m.ProposeKey(now, key, data)
		return pid
	})
	return gid, pid, err
}

// Read registers a read routed by key on the given process.
func (c *ShardCluster) Read(id types.NodeID, key string, consistency types.ReadConsistency) (gid types.GroupID, token uint64, err error) {
	err = c.do(id, func(n *node[shardMachine], now time.Duration) {
		gid, token = n.machine.Read(now, key, consistency)
	})
	return gid, token, err
}

// Split proposes a range split through the process currently leading the
// parent group (lifecycle entries need a leader or fast-track quorum like
// any other proposal; proposing at the leader keeps tests deterministic).
func (c *ShardCluster) Split(daughter types.GroupID, pivot string) (types.NodeID, types.ProposalID, error) {
	ref := c.hosts[c.opts.Procs[0]]
	parent := ref.machine.Route(pivot)
	h, ok := c.GroupLeader(parent)
	if !ok {
		return types.None, types.ProposalID{}, fmt.Errorf("harness: group %q has no leader", parent)
	}
	pid, err := h.machine.Split(c.Sched.Now(), daughter, pivot)
	if err != nil {
		return types.None, types.ProposalID{}, err
	}
	h.drain()
	return h.id, pid, nil
}

// Merge proposes folding the given group into its left neighbor, through
// the process currently leading it.
func (c *ShardCluster) Merge(right types.GroupID) (types.NodeID, types.ProposalID, error) {
	h, ok := c.GroupLeader(right)
	if !ok {
		return types.None, types.ProposalID{}, fmt.Errorf("harness: group %q has no leader", right)
	}
	pid, err := h.machine.Merge(c.Sched.Now(), right)
	if err != nil {
		return types.None, types.ProposalID{}, err
	}
	h.drain()
	return h.id, pid, nil
}

// TransferLeader orders the given group's leader to hand off to target.
func (c *ShardCluster) TransferLeader(gid types.GroupID, target types.NodeID) error {
	h, ok := c.GroupLeader(gid)
	if !ok {
		return fmt.Errorf("harness: group %q has no leader", gid)
	}
	if !h.machine.TransferLeader(gid, target) {
		return fmt.Errorf("harness: transfer of %q to %s refused", gid, target)
	}
	h.drain()
	return nil
}
