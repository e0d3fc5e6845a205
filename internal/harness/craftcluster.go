package harness

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/hraft-io/hraft/internal/core/craft"
	"github.com/hraft-io/hraft/internal/simnet"
	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// ClusterSpec describes one C-Raft cluster in a simulated deployment.
type ClusterSpec struct {
	// ID is the cluster identity (the global-level member name).
	ID types.NodeID
	// Sites are the cluster's member sites.
	Sites []types.NodeID
	// Region places the cluster's sites (and its global endpoint) in the
	// latency topology.
	Region simnet.Region
}

// CraftOptions configures a simulated C-Raft deployment.
type CraftOptions struct {
	// Clusters lists the initial clusters in deterministic order.
	Clusters []ClusterSpec
	// Seed drives all randomness.
	Seed int64
	// Topology is the latency model (nil = AWS preset).
	Topology *simnet.Topology
	// LossProb is the per-message drop probability.
	LossProb float64
	// DupProb is the per-message duplication probability.
	DupProb float64
	// BatchSize is entries per global batch (0 = paper default 10).
	BatchSize int
	// BatchDelay optionally flushes partial batches.
	BatchDelay time.Duration
	// LocalHeartbeat is the intra-cluster tick period (0 = 100 ms).
	LocalHeartbeat time.Duration
	// GlobalHeartbeat is the inter-cluster tick period (0 = 500 ms).
	GlobalHeartbeat time.Duration
	// MemberTimeoutRounds is the silent-leave threshold at both levels.
	MemberTimeoutRounds int
	// SnapshotThreshold enables local-log snapshotting + compaction (0 =
	// disabled).
	SnapshotThreshold int
	// MaxEntriesPerAppend caps AppendEntries payloads at both levels (0 =
	// unlimited).
	MaxEntriesPerAppend int
	// MaxInflightAppends bounds outstanding AppendEntries per peer at both
	// levels (0 = replica default).
	MaxInflightAppends int
	// MaxSnapshotChunk streams local-log InstallSnapshot in chunks of at
	// most this many payload bytes (0 = whole snapshot).
	MaxSnapshotChunk int
	// MaxInflightBatches caps unresolved global batch proposals per
	// cluster (0 = unlimited).
	MaxInflightBatches int
	// SessionTTL expires idle client sessions at the local level (0 = no
	// expiry).
	SessionTTL time.Duration
	// DisableFastTrack forces the classic track at both levels.
	DisableFastTrack bool
	// Trace equips every site with a flight recorder (local and global
	// layers share one ring per site); recorders survive Crash/Restart.
	// Dump with MergedTrace or DumpTraceOnFailure.
	Trace bool
	// TraceRing overrides the per-site recorder ring capacity (0 = the
	// trace package default, or $HRAFT_TRACE_RING when set).
	TraceRing int
	// TraceSample samples every Nth proposal/read with a wire-propagated
	// trace ID (0 = no sampling); requires Trace.
	TraceSample int
	// Audit selects the safety-auditor mode; the zero value is strict
	// auditing, so every deployment is audited unless a test opts out.
	Audit AuditMode
}

// GlobalCommit records one global-log entry commit observation.
type GlobalCommit struct {
	// At is when the commit was first observed at any site.
	At time.Duration
	// Index is the global log index.
	Index types.Index
	// Items is the number of application entries it carries (batch size;
	// 0 for no-ops and configuration entries).
	Items int
}

// CraftHost binds one C-Raft site to the simulated network.
type CraftHost struct {
	node[*craft.Node]
	c     *CraftCluster
	spec  ClusterSpec
	store *storage.Memory
	// OnGlobalCommit, when set, observes this site's global replay stream:
	// every global-log entry, in the order the site delivers it.
	OnGlobalCommit func(e types.Entry)
}

// ClusterID returns the site's cluster.
func (h *CraftHost) ClusterID() types.NodeID { return h.spec.ID }

// Node returns the hosted C-Raft state machine.
func (h *CraftHost) Node() *craft.Node { return h.machine }

// CraftCluster simulates a full C-Raft deployment: multiple clusters over a
// region topology with a shared global log, on the shared host loop. Its
// Safety checker keys the per-cluster local logs and the global log apart;
// its auditor watches the local and global layers alike, since they share
// one ring per site.
type CraftCluster struct {
	*sim[*craft.Node]
	// GlobalCommits records each global-log index when first observed
	// committed anywhere.
	GlobalCommits []GlobalCommit

	opts          CraftOptions
	hosts         map[types.NodeID]*CraftHost
	specs         []ClusterSpec
	endpointOwner map[types.NodeID]types.NodeID // cluster -> site owning its endpoint
	globalSeen    map[types.Index]bool
	rng           *rand.Rand
}

// NewCraftCluster builds and starts a C-Raft deployment.
func NewCraftCluster(opts CraftOptions) (*CraftCluster, error) {
	if len(opts.Clusters) == 0 {
		return nil, fmt.Errorf("harness: craft deployment needs clusters")
	}
	topo := opts.Topology
	if topo == nil {
		topo = simnet.AWSTopology()
	}
	c := &CraftCluster{
		sim:           newSim[*craft.Node]("site", topo, opts.Seed, opts.LossProb, opts.DupProb, opts.Audit),
		opts:          opts,
		hosts:         make(map[types.NodeID]*CraftHost),
		specs:         opts.Clusters,
		endpointOwner: make(map[types.NodeID]types.NodeID),
		globalSeen:    make(map[types.Index]bool),
		rng:           rand.New(rand.NewSource(opts.Seed + 2)),
	}
	globalBootstrap := c.globalConfig()
	for _, spec := range opts.Clusters {
		topo.SetRegion(string(spec.ID), spec.Region)
		for _, site := range spec.Sites {
			topo.SetRegion(string(site), spec.Region)
			if _, err := c.addSite(spec, site, globalBootstrap); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// globalConfig is the global level's configuration over every known
// cluster.
func (c *CraftCluster) globalConfig() types.Config {
	ids := make([]types.NodeID, len(c.specs))
	for i, s := range c.specs {
		ids[i] = s.ID
	}
	return types.NewConfig(ids...)
}

func (c *CraftCluster) addSite(spec ClusterSpec, site types.NodeID, globalBootstrap types.Config) (*CraftHost, error) {
	h := &CraftHost{c: c, spec: spec, store: storage.NewMemory()}
	h.node = c.newNode(site, h)
	if c.opts.Trace || c.Audit != nil {
		h.rec = c.recorder(trace.Config{Node: string(site), Size: c.opts.TraceRing, SampleRate: c.opts.TraceSample})
	}
	m, err := h.makeNode(globalBootstrap)
	if err != nil {
		return nil, err
	}
	c.hosts[site] = h
	h.start(m)
	h.drain()
	return h, nil
}

// boot rebuilds a crashed site, now knowing every cluster at the global
// level.
func (h *CraftHost) boot() (*craft.Node, error) { return h.makeNode(h.c.globalConfig()) }

func (h *CraftHost) makeNode(globalBootstrap types.Config) (*craft.Node, error) {
	c := h.c
	return craft.New(craft.Config{
		ID:                  h.id,
		Cluster:             h.spec.ID,
		ClusterBootstrap:    types.NewConfig(h.spec.Sites...),
		GlobalBootstrap:     globalBootstrap,
		Storage:             h.store,
		BatchSize:           c.opts.BatchSize,
		BatchDelay:          c.opts.BatchDelay,
		LocalHeartbeat:      c.opts.LocalHeartbeat,
		GlobalHeartbeat:     c.opts.GlobalHeartbeat,
		MemberTimeoutRounds: c.opts.MemberTimeoutRounds,
		SnapshotThreshold:   c.opts.SnapshotThreshold,
		MaxEntriesPerAppend: c.opts.MaxEntriesPerAppend,
		MaxInflightAppends:  c.opts.MaxInflightAppends,
		MaxSnapshotChunk:    c.opts.MaxSnapshotChunk,
		MaxInflightBatches:  c.opts.MaxInflightBatches,
		SessionTTL:          c.opts.SessionTTL,
		DisableFastTrack:    c.opts.DisableFastTrack,
		Rand:                rand.New(rand.NewSource(c.rng.Int63())),
		Recorder:            h.rec,
	})
}

// record feeds the site's local and global commits and leadership to the
// safety checker, the Timeline and GlobalCommits, and keeps the cluster's
// endpoint routed to the site running its global instance.
func (h *CraftHost) record(now time.Duration) {
	c := h.c
	group := "local/" + string(h.spec.ID)
	for _, e := range h.machine.DrainCommitted(nil) {
		c.Safety.RecordCommit(group, h.id, e)
		if h.OnCommit != nil {
			h.OnCommit(e)
		}
	}
	if h.machine.Role() == types.RoleLeader {
		c.Safety.RecordLeader(group, h.machine.Term(), h.id)
		c.Timeline.ObserveLeader(now, group, h.machine.Term(), h.id)
	}
	for _, e := range h.machine.DrainGlobalCommitted(nil) {
		c.Safety.RecordCommit("global", h.id, e)
		if h.OnGlobalCommit != nil {
			h.OnGlobalCommit(e)
		}
		if !c.globalSeen[e.Index] {
			c.globalSeen[e.Index] = true
			items := 0
			if e.Kind == types.KindBatch {
				if b, err := types.DecodeBatch(e.Data); err == nil {
					items = len(b.Items)
				}
			}
			c.GlobalCommits = append(c.GlobalCommits, GlobalCommit{
				At: now, Index: e.Index, Items: items,
			})
		}
	}
	if h.machine.IsGlobalMember() && h.machine.GlobalRole() == types.RoleLeader {
		c.Safety.RecordLeader("global", h.machine.GlobalTerm(), h.spec.ID)
		c.Timeline.ObserveLeader(now, "global", h.machine.GlobalTerm(), h.spec.ID)
	}
	owner := c.endpointOwner[h.spec.ID]
	switch {
	case h.machine.IsGlobalMember() && h.alive:
		if owner != h.id {
			c.endpointOwner[h.spec.ID] = h.id
			c.Net.Register(h.spec.ID, h.deliver)
		}
	case owner == h.id:
		h.releaseEndpoint()
	}
}

// down retires both layers' recording instances, which die with the site,
// and the cluster endpoint if the site held it.
func (h *CraftHost) down() {
	h.c.Audit.NodeDown(string(h.id))
	h.c.Audit.NodeDown(string(h.id) + "/global")
	if h.c.endpointOwner[h.spec.ID] == h.id {
		h.releaseEndpoint()
	}
}

func (h *CraftHost) releaseEndpoint() {
	delete(h.c.endpointOwner, h.spec.ID)
	h.c.Net.Unregister(h.spec.ID)
}

// Host returns the host for a site.
func (c *CraftCluster) Host(id types.NodeID) *CraftHost { return c.hosts[id] }

// Specs returns the deployment's cluster specifications.
func (c *CraftCluster) Specs() []ClusterSpec { return c.specs }

// LocalLeader returns the current leader site of a cluster, if any.
func (c *CraftCluster) LocalLeader(cluster types.NodeID) (*CraftHost, bool) {
	var best *CraftHost
	for _, h := range c.hosts {
		if !h.alive || h.spec.ID != cluster || h.machine.Role() != types.RoleLeader {
			continue
		}
		if best == nil || h.machine.Term() > best.machine.Term() {
			best = h
		}
	}
	return best, best != nil
}

// GlobalLeaderCluster returns the cluster currently leading the global
// level, if any.
func (c *CraftCluster) GlobalLeaderCluster() (types.NodeID, bool) {
	var (
		best     types.NodeID
		bestTerm types.Term
		found    bool
	)
	for _, h := range c.hosts {
		if !h.alive || !h.machine.IsGlobalMember() {
			continue
		}
		if h.machine.GlobalRole() == types.RoleLeader && (!found || h.machine.GlobalTerm() > bestTerm) {
			best, bestTerm, found = h.spec.ID, h.machine.GlobalTerm(), true
		}
	}
	return best, found
}

// WaitForLeaders runs until every cluster has a local leader and a global
// leader exists.
func (c *CraftCluster) WaitForLeaders(deadline time.Duration) bool {
	return c.RunUntil(func() bool {
		for _, spec := range c.specs {
			if _, ok := c.LocalLeader(spec.ID); !ok {
				return false
			}
		}
		_, ok := c.GlobalLeaderCluster()
		return ok
	}, deadline)
}

// Propose submits an application payload at the given site.
func (c *CraftCluster) Propose(id types.NodeID, data []byte) (types.ProposalID, error) {
	return c.propose(id, func(m *craft.Node, now time.Duration) types.ProposalID {
		return m.Propose(now, data)
	})
}

// OpenSession proposes a client-session registration at the given site; the
// returned proposal resolves with the new session's ID.
func (c *CraftCluster) OpenSession(id types.NodeID) (types.ProposalID, error) {
	return c.propose(id, (*craft.Node).OpenSession)
}

// ProposeSession submits a payload under (sid, seq) at the given site.
func (c *CraftCluster) ProposeSession(id types.NodeID, sid types.SessionID, seq uint64, data []byte) (types.ProposalID, error) {
	return c.propose(id, func(m *craft.Node, now time.Duration) types.ProposalID {
		return m.ProposeSession(now, sid, seq, 0, data)
	})
}

// Read registers a site-local read on the given site under the given
// consistency mode; await its local linearization index with AwaitRead.
func (c *CraftCluster) Read(id types.NodeID, consistency types.ReadConsistency) (token uint64, err error) {
	err = c.do(id, func(n *node[*craft.Node], now time.Duration) {
		token = n.machine.Read(now, consistency)
	})
	return token, err
}

// ReadGlobal registers a global-ring read on the given site (which must
// lead its cluster); await its global linearization index with AwaitRead.
func (c *CraftCluster) ReadGlobal(id types.NodeID, consistency types.ReadConsistency) (token uint64, err error) {
	err = c.do(id, func(n *node[*craft.Node], now time.Duration) {
		token = n.machine.ReadGlobal(now, consistency)
	})
	return token, err
}

// AddCluster forms a brand-new cluster at runtime: its sites boot with the
// cluster's local bootstrap, elect a local leader, and the leader joins the
// global configuration via the paper's global join protocol.
func (c *CraftCluster) AddCluster(spec ClusterSpec) error {
	for _, s := range c.specs {
		if s.ID == spec.ID {
			return fmt.Errorf("harness: cluster %s already exists", spec.ID)
		}
	}
	contacts := make([]types.NodeID, 0, len(c.specs))
	for _, s := range c.specs {
		contacts = append(contacts, s.ID)
	}
	c.specs = append(c.specs, spec)
	c.Net.Topology().SetRegion(string(spec.ID), spec.Region)
	for _, site := range spec.Sites {
		c.Net.Topology().SetRegion(string(site), spec.Region)
		h, err := c.addSite(spec, site, types.NewConfig()) // empty global bootstrap
		if err != nil {
			return err
		}
		h.machine.JoinGlobal(c.Sched.Now(), contacts)
		h.drain()
	}
	return nil
}

// GlobalItemsCommitted sums application entries committed to the global log
// in the window [lo, hi).
func (c *CraftCluster) GlobalItemsCommitted(lo, hi time.Duration) int {
	total := 0
	for _, gc := range c.GlobalCommits {
		if gc.At >= lo && gc.At < hi {
			total += gc.Items
		}
	}
	return total
}

// StartProposer attaches a closed-loop proposer to a site (local commits
// gate the loop, as in the paper's throughput experiment).
func (c *CraftCluster) StartProposer(opts ProposerOptions) (*Proposer, error) {
	return startProposer(c.sim, opts, c.Propose)
}
