package harness

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/hraft-io/hraft/internal/audit"
	"github.com/hraft-io/hraft/internal/core/craft"
	"github.com/hraft-io/hraft/internal/simnet"
	"github.com/hraft-io/hraft/internal/stats"
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
	c     *CraftCluster
	id    types.NodeID
	clust types.NodeID
	node  *craft.Node
	store *storage.Memory
	alive bool
	wake  *simnet.Timer
	// rec is the site's flight recorder (nil unless CraftOptions.Trace),
	// reused across Crash/Restart.
	rec *trace.Recorder

	proposeStart map[types.ProposalID]time.Duration
	// resolved records the resolution index of every tracked proposal.
	resolved map[types.ProposalID]types.Index
	// readDone records the resolution of every tracked read.
	readDone map[uint64]types.ReadDone
	// OnResolve observes local application proposal resolutions.
	OnResolve func(pid types.ProposalID, at, latency time.Duration)
	// OnCommit, when set, observes every locally applied entry (session
	// duplicates never appear here).
	OnCommit func(e types.Entry)
	// OnGlobalCommit, when set, observes this site's global replay stream:
	// every global-log entry, in the order the site delivers it.
	OnGlobalCommit func(e types.Entry)
}

// ReadResult returns the resolution of a tracked read, if it resolved.
func (h *CraftHost) ReadResult(token uint64) (types.ReadDone, bool) {
	d, ok := h.readDone[token]
	return d, ok
}

// Resolved returns the resolution index of a tracked proposal, if it
// resolved.
func (h *CraftHost) Resolved(pid types.ProposalID) (types.Index, bool) {
	idx, ok := h.resolved[pid]
	return idx, ok
}

// ID returns the site identity.
func (h *CraftHost) ID() types.NodeID { return h.id }

// ClusterID returns the site's cluster.
func (h *CraftHost) ClusterID() types.NodeID { return h.clust }

// Node returns the hosted C-Raft state machine.
func (h *CraftHost) Node() *craft.Node { return h.node }

// Alive reports whether the host is running.
func (h *CraftHost) Alive() bool { return h.alive }

// CraftCluster simulates a full C-Raft deployment: multiple clusters over a
// region topology with a shared global log.
type CraftCluster struct {
	opts CraftOptions
	// Sched is the virtual-time scheduler.
	Sched *simnet.Scheduler
	// Net is the simulated network.
	Net *simnet.Network
	// Safety accumulates invariant violations (per-cluster local logs and
	// the global log).
	Safety *SafetyChecker
	// Latencies collects local proposal resolution latencies.
	Latencies *stats.Series
	// GlobalCommits records each global-log index when first observed
	// committed anywhere.
	GlobalCommits []GlobalCommit
	// Timeline records leadership and churn events at both levels.
	Timeline *Timeline
	// Audit is the streaming safety auditor attached to every site's
	// recorder — local and global layers alike, since the layers share one
	// ring per site (nil when CraftOptions.Audit is AuditOff).
	Audit *audit.Auditor

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
	sched := simnet.NewScheduler()
	net := simnet.NewNetwork(sched, topo, opts.Seed)
	net.LossProb = opts.LossProb
	net.DupProb = opts.DupProb
	c := &CraftCluster{
		opts:          opts,
		Sched:         sched,
		Net:           net,
		Safety:        NewSafetyChecker(),
		Latencies:     &stats.Series{},
		Timeline:      NewTimeline(),
		hosts:         make(map[types.NodeID]*CraftHost),
		specs:         opts.Clusters,
		endpointOwner: make(map[types.NodeID]types.NodeID),
		globalSeen:    make(map[types.Index]bool),
		rng:           rand.New(rand.NewSource(opts.Seed + 2)),
	}
	c.Audit = newAuditor(opts.Audit)
	globalIDs := make([]types.NodeID, len(opts.Clusters))
	for i, spec := range opts.Clusters {
		globalIDs[i] = spec.ID
	}
	globalBootstrap := types.NewConfig(globalIDs...)
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

func (c *CraftCluster) addSite(spec ClusterSpec, site types.NodeID, globalBootstrap types.Config) (*CraftHost, error) {
	h := &CraftHost{
		c:            c,
		id:           site,
		clust:        spec.ID,
		store:        storage.NewMemory(),
		proposeStart: make(map[types.ProposalID]time.Duration),
		resolved:     make(map[types.ProposalID]types.Index),
		readDone:     make(map[uint64]types.ReadDone),
	}
	if c.opts.Trace || c.Audit != nil {
		h.rec = trace.New(trace.Config{Node: string(site), Size: c.opts.TraceRing, SampleRate: c.opts.TraceSample})
		c.Audit.AttachTo(h.rec)
	}
	node, err := c.makeNode(spec, site, globalBootstrap, h.store, h.rec)
	if err != nil {
		return nil, err
	}
	h.node = node
	h.alive = true
	c.hosts[site] = h
	c.Net.Register(site, func(env types.Envelope) {
		if !h.alive {
			return
		}
		h.node.Step(c.Sched.Now(), env)
		c.drain(h)
	})
	c.drain(h)
	return h, nil
}

func (c *CraftCluster) makeNode(spec ClusterSpec, site types.NodeID, globalBootstrap types.Config, store storage.Storage, rec *trace.Recorder) (*craft.Node, error) {
	return craft.New(craft.Config{
		ID:                  site,
		Cluster:             spec.ID,
		ClusterBootstrap:    types.NewConfig(spec.Sites...),
		GlobalBootstrap:     globalBootstrap,
		Storage:             store,
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
		Recorder:            rec,
	})
}

// drain flushes a host's outputs and re-arms its wake timer.
func (c *CraftCluster) drain(h *CraftHost) {
	now := c.Sched.Now()
	for _, env := range h.node.DrainOutbox(nil) {
		c.Net.Send(env)
	}
	group := "local/" + string(h.clust)
	for _, e := range h.node.DrainCommitted(nil) {
		c.Safety.RecordCommit(group, h.id, e)
		if h.OnCommit != nil {
			h.OnCommit(e)
		}
	}
	if h.node.Role() == types.RoleLeader {
		c.Safety.RecordLeader(group, h.node.Term(), h.id)
		c.Timeline.ObserveLeader(now, group, h.node.Term(), h.id)
	}
	for _, e := range h.node.DrainGlobalCommitted(nil) {
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
	if h.node.IsGlobalMember() && h.node.GlobalRole() == types.RoleLeader {
		c.Safety.RecordLeader("global", h.node.GlobalTerm(), h.clust)
		c.Timeline.ObserveLeader(now, "global", h.node.GlobalTerm(), h.clust)
	}
	for _, res := range h.node.DrainResolved(nil) {
		h.resolved[res.PID] = res.Index
		start, ok := h.proposeStart[res.PID]
		if !ok {
			continue
		}
		delete(h.proposeStart, res.PID)
		lat := now - start
		c.Latencies.Add(now, lat)
		if h.OnResolve != nil {
			h.OnResolve(res.PID, now, lat)
		}
	}
	for _, d := range h.node.DrainReadDone(nil) {
		h.readDone[d.ID] = d
	}
	c.syncEndpoint(h)
	c.schedule(h)
}

// syncEndpoint keeps the cluster-ID routing entry pointed at the site that
// currently runs the cluster's global instance.
func (c *CraftCluster) syncEndpoint(h *CraftHost) {
	owner := c.endpointOwner[h.clust]
	if h.node.IsGlobalMember() && h.alive {
		if owner != h.id {
			c.endpointOwner[h.clust] = h.id
			c.Net.Register(h.clust, func(env types.Envelope) {
				if !h.alive {
					return
				}
				h.node.Step(c.Sched.Now(), env)
				c.drain(h)
			})
		}
		return
	}
	if owner == h.id {
		delete(c.endpointOwner, h.clust)
		c.Net.Unregister(h.clust)
	}
}

func (c *CraftCluster) schedule(h *CraftHost) {
	if h.wake != nil {
		h.wake.Cancel()
		h.wake = nil
	}
	if !h.alive {
		return
	}
	d := h.node.NextDeadline()
	if d == 0 {
		return
	}
	h.wake = c.Sched.At(d, func() {
		if !h.alive {
			return
		}
		h.node.Tick(c.Sched.Now())
		c.drain(h)
	})
}

// Host returns the host for a site.
func (c *CraftCluster) Host(id types.NodeID) *CraftHost { return c.hosts[id] }

// Specs returns the deployment's cluster specifications.
func (c *CraftCluster) Specs() []ClusterSpec { return c.specs }

// RunFor advances virtual time by d.
func (c *CraftCluster) RunFor(d time.Duration) { c.Sched.RunUntil(c.Sched.Now() + d) }

// RunUntil steps the simulation until cond holds or deadline passes.
func (c *CraftCluster) RunUntil(cond func() bool, deadline time.Duration) bool {
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

// LocalLeader returns the current leader site of a cluster, if any.
func (c *CraftCluster) LocalLeader(cluster types.NodeID) (*CraftHost, bool) {
	var best *CraftHost
	for _, h := range c.hosts {
		if !h.alive || h.clust != cluster || h.node.Role() != types.RoleLeader {
			continue
		}
		if best == nil || h.node.Term() > best.node.Term() {
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
		if !h.alive || !h.node.IsGlobalMember() {
			continue
		}
		if h.node.GlobalRole() == types.RoleLeader && (!found || h.node.GlobalTerm() > bestTerm) {
			best, bestTerm, found = h.clust, h.node.GlobalTerm(), true
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
	h := c.hosts[id]
	if h == nil || !h.alive {
		return types.ProposalID{}, fmt.Errorf("harness: site %s not running", id)
	}
	now := c.Sched.Now()
	pid := h.node.Propose(now, data)
	h.proposeStart[pid] = now
	c.drain(h)
	return pid, nil
}

// OpenSession proposes a client-session registration at the given site; the
// returned proposal resolves with the new session's ID.
func (c *CraftCluster) OpenSession(id types.NodeID) (types.ProposalID, error) {
	h := c.hosts[id]
	if h == nil || !h.alive {
		return types.ProposalID{}, fmt.Errorf("harness: site %s not running", id)
	}
	now := c.Sched.Now()
	pid := h.node.OpenSession(now)
	h.proposeStart[pid] = now
	c.drain(h)
	return pid, nil
}

// ProposeSession submits a payload under (sid, seq) at the given site.
func (c *CraftCluster) ProposeSession(id types.NodeID, sid types.SessionID, seq uint64, data []byte) (types.ProposalID, error) {
	h := c.hosts[id]
	if h == nil || !h.alive {
		return types.ProposalID{}, fmt.Errorf("harness: site %s not running", id)
	}
	now := c.Sched.Now()
	pid := h.node.ProposeSession(now, sid, seq, 0, data)
	h.proposeStart[pid] = now
	c.drain(h)
	return pid, nil
}

// AwaitResolution runs the simulation until the proposal tracked at site id
// resolves, returning its resolution index.
// Read registers a site-local read on the given site under the given
// consistency mode; await its local linearization index with AwaitRead.
func (c *CraftCluster) Read(id types.NodeID, consistency types.ReadConsistency) (uint64, error) {
	h := c.hosts[id]
	if h == nil || !h.alive {
		return 0, fmt.Errorf("harness: site %s not running", id)
	}
	token := h.node.Read(c.Sched.Now(), consistency)
	c.drain(h)
	return token, nil
}

// ReadGlobal registers a global-ring read on the given site (which must
// lead its cluster); await its global linearization index with AwaitRead.
func (c *CraftCluster) ReadGlobal(id types.NodeID, consistency types.ReadConsistency) (uint64, error) {
	h := c.hosts[id]
	if h == nil || !h.alive {
		return 0, fmt.Errorf("harness: site %s not running", id)
	}
	token := h.node.ReadGlobal(c.Sched.Now(), consistency)
	c.drain(h)
	return token, nil
}

// AwaitRead runs the simulation until the read tracked on site id
// resolves, returning its outcome.
func (c *CraftCluster) AwaitRead(id types.NodeID, token uint64, deadline time.Duration) (types.ReadDone, bool) {
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

func (c *CraftCluster) AwaitResolution(id types.NodeID, pid types.ProposalID, deadline time.Duration) (types.Index, bool) {
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

// Crash stops a site without warning.
func (c *CraftCluster) Crash(id types.NodeID) {
	h := c.hosts[id]
	if h == nil || !h.alive {
		return
	}
	h.alive = false
	if h.wake != nil {
		h.wake.Cancel()
		h.wake = nil
	}
	c.Net.Unregister(id)
	// Both layers' recording instances die with the site.
	c.Audit.NodeDown(string(id))
	c.Audit.NodeDown(string(id) + "/global")
	if c.endpointOwner[h.clust] == h.id {
		delete(c.endpointOwner, h.clust)
		c.Net.Unregister(h.clust)
	}
}

// Restart revives a crashed site from its stable storage.
func (c *CraftCluster) Restart(id types.NodeID) error {
	h := c.hosts[id]
	if h == nil {
		return fmt.Errorf("harness: unknown site %s", id)
	}
	if h.alive {
		return fmt.Errorf("harness: site %s already running", id)
	}
	var spec ClusterSpec
	for _, s := range c.specs {
		if s.ID == h.clust {
			spec = s
			break
		}
	}
	globalIDs := make([]types.NodeID, len(c.specs))
	for i, s := range c.specs {
		globalIDs[i] = s.ID
	}
	node, err := c.makeNode(spec, id, types.NewConfig(globalIDs...), h.store, h.rec)
	if err != nil {
		return err
	}
	h.node = node
	h.alive = true
	h.proposeStart = make(map[types.ProposalID]time.Duration)
	h.resolved = make(map[types.ProposalID]types.Index)
	h.readDone = make(map[uint64]types.ReadDone)
	c.Net.Register(id, func(env types.Envelope) {
		if !h.alive {
			return
		}
		h.node.Step(c.Sched.Now(), env)
		c.drain(h)
	})
	c.drain(h)
	return nil
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
		h.node.JoinGlobal(c.Sched.Now(), contacts)
		c.drain(h)
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
func (c *CraftCluster) StartProposer(opts ProposerOptions) (*CraftProposer, error) {
	h := c.hosts[opts.Node]
	if h == nil {
		return nil, fmt.Errorf("harness: unknown proposer site %s", opts.Node)
	}
	if opts.PayloadSize == 0 {
		opts.PayloadSize = 16
	}
	p := &CraftProposer{c: c, opts: opts, Series: &stats.Series{}}
	h.OnResolve = func(_ types.ProposalID, at, latency time.Duration) {
		p.Series.Add(at, latency)
		p.Completed++
		p.next()
	}
	p.propose()
	return p, nil
}

// CraftProposer is a closed-loop proposer over a C-Raft site.
type CraftProposer struct {
	c    *CraftCluster
	opts ProposerOptions
	// Series records (completion time, latency) per resolved proposal.
	Series *stats.Series
	// Completed counts resolved proposals.
	Completed int
	seq       int
	stopped   bool
}

// Stop halts the proposer.
func (p *CraftProposer) Stop() { p.stopped = true }

func (p *CraftProposer) done() bool {
	if p.stopped {
		return true
	}
	if p.opts.MaxProposals > 0 && p.Completed >= p.opts.MaxProposals {
		return true
	}
	if p.opts.StopAfter > 0 && p.c.Sched.Now() >= p.opts.StopAfter {
		return true
	}
	return false
}

func (p *CraftProposer) next() {
	if p.done() {
		return
	}
	delay := p.opts.ThinkTime
	p.c.Sched.After(delay, p.propose)
}

func (p *CraftProposer) propose() {
	if p.done() {
		return
	}
	h := p.c.hosts[p.opts.Node]
	if h == nil || !h.alive {
		return
	}
	p.seq++
	payload := make([]byte, p.opts.PayloadSize)
	for i := range payload {
		payload[i] = byte(p.seq + i)
	}
	if _, err := p.c.Propose(p.opts.Node, payload); err != nil {
		p.stopped = true
	}
}
