// Package shard multiplexes many consensus groups over one process's shared
// resources. A Manager hosts N Fast Raft cores behind a single
// runtime.Machine face: one host timer serves every group's tick wheel, one
// transport endpoint carries every group's traffic (messages are tagged with
// their group; messages to the same destination process coalesce into
// ShardBatch datagrams), and one shared WAL directory absorbs every group's
// writes so fsyncs batch across groups (see storage.WALGroup).
//
// Keys route to groups through a sorted range table: each live group owns
// one contiguous key range [Start, nextStart). The table changes only
// through entries committed in the affected group's own log — KindShardSplit
// carves a daughter group out of a hot range, KindShardMerge folds a cold
// range into its left neighbor — so every member process applies the same
// change at the same log position and the tables converge without any
// cross-group coordination protocol.
//
// The per-group cores are untouched: a Manager is plumbing around
// fastraft.Node, not a new consensus protocol.
package shard

import (
	"fmt"
	"sort"
	"time"

	"github.com/hraft-io/hraft/internal/core/fastraft"
	"github.com/hraft-io/hraft/internal/runtime"
	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/types"
)

// GroupSpec names one initial group and the inclusive lower bound of its
// key range. The first spec's Start must be "" (someone must own the
// smallest keys); specs must be sorted by Start with no duplicates.
type GroupSpec struct {
	ID    types.GroupID
	Start string
}

// Config assembles a Manager.
type Config struct {
	// ProcessID is this process's identity. Every group's core runs under
	// it: group membership is process membership.
	ProcessID types.NodeID
	// Groups is the initial range table (required, at least one entry).
	// Lifecycle changes journaled in Meta replay on top of it at restart.
	Groups []GroupSpec
	// Storage returns the named group's stable storage view — a
	// storage.WAL.Group or storage.ShardMemory.Group slice of the shared
	// store (required).
	Storage func(gid types.GroupID) storage.Storage
	// NewCore builds one group's consensus core over the given storage
	// (required). Called for the initial groups, for daughters created by
	// committed splits, and again at restart for every recovered group.
	// The returned core must use st as its Config.Storage.
	NewCore func(gid types.GroupID, boot types.Config, st storage.Storage) (*fastraft.Node, error)
	// Meta is the manager's routing journal (optional): applied splits and
	// merges are recorded here and replayed at restart so the range table
	// survives. With a shared WAL, pass the WAL itself — the flat
	// namespace is unused by sharded processes. Nil keeps routing volatile.
	Meta storage.Storage
	// SplitSeed, when set, produces the daughter group's initial state
	// image for a split: called at split apply on every member with
	// identical applied state, so every member seeds the same snapshot and
	// the daughter starts with the moved range's data already in place.
	SplitSeed func(parent, daughter types.GroupID, pivot string) []byte
	// MaxBatchBytes bounds one coalesced ShardBatch's estimated payload
	// (default 48 KiB, under the UDP datagram ceiling with headroom for
	// framing). Messages too large to share a batch go out alone.
	MaxBatchBytes int
	// RetireDrain is how long a merged-away group's core stays alive after
	// its proposals resolve, to serve straggler peers (default 1s).
	RetireDrain time.Duration
}

func (c *Config) defaults() error {
	if c.ProcessID == types.None {
		return fmt.Errorf("shard: ProcessID is required")
	}
	if len(c.Groups) == 0 {
		return fmt.Errorf("shard: at least one GroupSpec is required")
	}
	if c.Groups[0].Start != "" {
		return fmt.Errorf("shard: first group's Start must be \"\"")
	}
	for i := 1; i < len(c.Groups); i++ {
		if c.Groups[i].Start <= c.Groups[i-1].Start {
			return fmt.Errorf("shard: GroupSpecs must be sorted by Start without duplicates")
		}
	}
	if c.Storage == nil || c.NewCore == nil {
		return fmt.Errorf("shard: Storage and NewCore are required")
	}
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = 48 << 10
	}
	if c.RetireDrain <= 0 {
		c.RetireDrain = time.Second
	}
	return nil
}

// rangeEntry is one row of the routing table: keys >= Start route to Group
// until the next row's Start.
type rangeEntry struct {
	Start string
	Group types.GroupID
}

// group is one hosted core plus its lifecycle state.
type group struct {
	id   types.GroupID
	core *fastraft.Node
	// retired marks a group merged away: it no longer owns a range, takes
	// no new proposals, and is garbage-collected once quiet (see gcTick).
	retired   bool
	retiredAt time.Duration
	// retiredIndex is the merge entry's index and announced records that an
	// AppendEntries carrying a commit index at or above it has left this
	// process: a leader commits the merge when the deciding ack arrives, but
	// its followers learn of the commit — and retire — only from its next
	// dispatch, which the core must live to send whatever RetireDrain is.
	retiredIndex types.Index
	announced    bool
}

// Manager multiplexes many consensus groups behind one runtime.Machine. Not
// safe for concurrent use; hosts serialize all calls, exactly as for a
// single core.
type Manager struct {
	cfg    Config
	boot   types.Config // member processes for bootstrap groups
	groups map[types.GroupID]*group
	order  []*group // sorted by id: deterministic drain order
	ranges []rangeEntry

	metaSeq types.Index

	// pidSeq mints process-wide proposal IDs: cores keep their own per-group
	// sequences for internal proposals (config changes, rejoins), so two
	// groups on one process would otherwise produce colliding (proposer,
	// seq) pairs and confuse process-level resolution tracking.
	pidSeq uint64
	// readSeq/readMap remap per-core read tokens (each core counts from 1)
	// onto one process-wide token space.
	readSeq uint64
	readMap map[shardReadKey]uint64

	now time.Duration

	// Reused buffers each group core's outputs are drained into; nothing
	// keeps them past the drain that fills them.
	envBuf   []types.Envelope
	entryBuf []types.Entry
	resBuf   []types.Resolution
	readBuf  []types.ReadDone

	// stats (monotonic counters except groups gauges).
	statProposals  uint64
	statCoalesced  uint64 // frames that rode inside a sent ShardBatch
	statBatches    uint64 // ShardBatch envelopes sent
	statUnbatched  uint64 // envelopes sent alone
	statFramesIn   uint64 // frames received inside ShardBatches
	statDropped    uint64 // messages for unknown groups
	statSplits     uint64
	statMerges     uint64
	statRetired    uint64 // groups garbage-collected after a merge
	statTransfers  uint64
	statSeedBytes  uint64 // split seed snapshot bytes written
	statMetaReplay uint64 // journaled lifecycle records replayed at boot
}

// New builds a manager: the initial groups open (recovering from their
// storage views), the Meta journal replays routing changes, and every
// recovered live group gets its core.
func New(cfg Config, boot types.Config) (*Manager, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:     cfg,
		boot:    boot,
		groups:  make(map[types.GroupID]*group),
		readMap: make(map[shardReadKey]uint64),
	}
	for _, gs := range cfg.Groups {
		m.ranges = append(m.ranges, rangeEntry{Start: gs.Start, Group: gs.ID})
	}
	if err := m.replayMeta(); err != nil {
		return nil, err
	}
	for _, r := range m.ranges {
		if _, ok := m.groups[r.Group]; ok {
			continue // a group may appear once only; ranges are unique anyway
		}
		if err := m.openGroup(r.Group, boot); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// openGroup creates the core for a live group over its storage view.
func (m *Manager) openGroup(gid types.GroupID, boot types.Config) error {
	st := m.cfg.Storage(gid)
	core, err := m.cfg.NewCore(gid, boot, st)
	if err != nil {
		return fmt.Errorf("shard: open group %q: %w", gid, err)
	}
	g := &group{id: gid, core: core}
	m.groups[gid] = g
	m.insertOrdered(g)
	return nil
}

func (m *Manager) insertOrdered(g *group) {
	i := sort.Search(len(m.order), func(i int) bool { return m.order[i].id >= g.id })
	m.order = append(m.order, nil)
	copy(m.order[i+1:], m.order[i:])
	m.order[i] = g
}

func (m *Manager) removeOrdered(g *group) {
	for i, o := range m.order {
		if o == g {
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
}

// Route returns the group owning key: the last range whose Start <= key.
func (m *Manager) Route(key string) types.GroupID {
	i := sort.Search(len(m.ranges), func(i int) bool { return m.ranges[i].Start > key })
	return m.ranges[i-1].Group // ranges[0].Start == "" always matches
}

// Ranges returns a copy of the routing table (diagnostics).
func (m *Manager) Ranges() []struct {
	Start string
	Group types.GroupID
} {
	out := make([]struct {
		Start string
		Group types.GroupID
	}, len(m.ranges))
	for i, r := range m.ranges {
		out[i].Start, out[i].Group = r.Start, r.Group
	}
	return out
}

// Groups returns the live (routed) group IDs in sorted order.
func (m *Manager) Groups() []types.GroupID {
	out := make([]types.GroupID, 0, len(m.order))
	for _, g := range m.order {
		if !g.retired {
			out = append(out, g.id)
		}
	}
	return out
}

// Group returns the named group's core (nil if unknown). Tests and the
// public wrapper reach per-group state through it; calls must be serialized
// by the owning host like every other manager call.
func (m *Manager) Group(gid types.GroupID) *fastraft.Node {
	if g, ok := m.groups[gid]; ok {
		return g.core
	}
	return nil
}

// --- runtime.Machine -------------------------------------------------------

// ID returns the process identity shared by every group's core.
func (m *Manager) ID() types.NodeID { return m.cfg.ProcessID }

// Role reports the first live group's role. Multi-group processes hold a
// role per group; use Group(gid) for per-group state.
func (m *Manager) Role() types.Role {
	for _, g := range m.order {
		if !g.retired {
			return g.core.Role()
		}
	}
	return types.RoleFollower
}

// Term reports the first live group's term (see Role).
func (m *Manager) Term() types.Term {
	for _, g := range m.order {
		if !g.retired {
			return g.core.Term()
		}
	}
	return 0
}

// LeaderID reports the first live group's leader view (see Role).
func (m *Manager) LeaderID() types.NodeID {
	for _, g := range m.order {
		if !g.retired {
			return g.core.LeaderID()
		}
	}
	return types.None
}

// CommitIndex reports the sum of all live groups' commit indexes: a single
// monotonic progress figure for a multi-group process.
func (m *Manager) CommitIndex() types.Index {
	var sum types.Index
	for _, g := range m.order {
		if !g.retired {
			sum += g.core.CommitIndex()
		}
	}
	return sum
}

// Step delivers a message: ShardBatch frames unpack and route by their
// group tag, everything else routes by the envelope's group tag. Messages
// for unknown groups drop (the protocols tolerate loss; a retired group's
// stragglers land here).
func (m *Manager) Step(now time.Duration, env types.Envelope) {
	m.now = now
	if b, ok := env.Msg.(types.ShardBatch); ok {
		m.statFramesIn += uint64(len(b.Frames))
		for _, f := range b.Frames {
			m.stepOne(now, types.Envelope{
				From: env.From, To: env.To,
				Layer: f.Layer, Group: f.Group, Msg: f.Msg,
			})
		}
		return
	}
	m.stepOne(now, env)
}

func (m *Manager) stepOne(now time.Duration, env types.Envelope) {
	g, ok := m.groups[env.Group]
	if !ok {
		m.statDropped++
		return
	}
	g.core.Step(now, env)
}

// Tick advances every group whose deadline is due — the single ticker
// wheel: the host arms one timer at NextDeadline and the due groups tick
// together — then garbage-collects quiet retired groups.
func (m *Manager) Tick(now time.Duration) {
	m.now = now
	for _, g := range m.order {
		if d := g.core.NextDeadline(); d > 0 && d <= now {
			g.core.Tick(now)
		}
	}
	m.gcTick(now)
}

// NextDeadline reports the earliest deadline across all groups.
func (m *Manager) NextDeadline() time.Duration {
	var min time.Duration
	for _, g := range m.order {
		if d := g.core.NextDeadline(); d > 0 && (min == 0 || d < min) {
			min = d
		}
	}
	return min
}

// Propose routes by the payload's key and submits to the owning group. The
// whole payload is the key — use ProposeKey when key and value differ.
func (m *Manager) Propose(now time.Duration, data []byte) types.ProposalID {
	_, pid := m.ProposeKey(now, string(data), data)
	return pid
}

// shardSeqBase tags manager-minted proposal sequence numbers: cores count
// their internal proposals from 1, so the two spaces never meet.
const shardSeqBase = uint64(1) << 63

// nextPID mints a process-wide proposal ID.
func (m *Manager) nextPID() types.ProposalID {
	m.pidSeq++
	return types.ProposalID{Proposer: m.cfg.ProcessID, Seq: shardSeqBase | m.pidSeq}
}

// shardReadKey locates one core-local read token.
type shardReadKey struct {
	gid   types.GroupID
	token uint64
}

// ProposeKey routes key through the range table and proposes data in the
// owning group, returning it alongside the proposal ID.
func (m *Manager) ProposeKey(now time.Duration, key string, data []byte) (types.GroupID, types.ProposalID) {
	m.now = now
	gid := m.Route(key)
	g := m.groups[gid]
	m.statProposals++
	pid := g.core.ProposeEntryPID(now, types.Entry{
		Kind: types.KindNormal,
		Data: append([]byte(nil), data...),
	}, m.nextPID())
	return gid, pid
}

// Read registers a linearizable read in the group owning key (see
// fastraft.Node.Read); the returned token is process-wide and resolves
// through DrainGroupReadDone.
func (m *Manager) Read(now time.Duration, key string, c types.ReadConsistency) (types.GroupID, uint64) {
	m.now = now
	gid := m.Route(key)
	coreToken := m.groups[gid].core.Read(now, c)
	m.readSeq++
	m.readMap[shardReadKey{gid: gid, token: coreToken}] = m.readSeq
	return gid, m.readSeq
}

// SyncDone fans a durability advance to every core: all groups share the
// storage LSN space, so one fsync batch releases every group's gated
// outputs at once.
func (m *Manager) SyncDone(now time.Duration, durableLSN uint64) {
	m.now = now
	for _, g := range m.order {
		g.core.SyncDone(now, durableLSN)
	}
}

// DrainOutbox drains every group's outbox and coalesces messages bound for
// the same destination process into ShardBatch envelopes, bounded by the
// byte budget, appending them to dst. One datagram then carries many groups' traffic to a peer —
// with 64 groups, a heartbeat round is a handful of batches instead of 64
// individual messages per peer.
func (m *Manager) DrainOutbox(dst []types.Envelope) []types.Envelope {
	var order []types.NodeID
	buckets := make(map[types.NodeID][]types.Envelope)
	for _, g := range m.order {
		m.envBuf = g.core.DrainOutbox(m.envBuf[:0])
		for _, env := range m.envBuf {
			env.Group = g.id
			if ae, ok := env.Msg.(types.AppendEntries); ok && g.retired && ae.LeaderCommit >= g.retiredIndex {
				g.announced = true
			}
			if _, ok := buckets[env.To]; !ok {
				order = append(order, env.To)
			}
			buckets[env.To] = append(buckets[env.To], env)
		}
	}
	clear(m.envBuf)
	for _, to := range order {
		dst = m.packDest(dst, to, buckets[to])
	}
	return dst
}

// packDest appends one destination's envelopes to out, coalescing into
// batches under the byte budget.
func (m *Manager) packDest(out []types.Envelope, to types.NodeID, envs []types.Envelope) []types.Envelope {
	if len(envs) == 1 {
		m.statUnbatched++
		return append(out, envs[0])
	}
	var frames []types.ShardFrame
	var size int
	flush := func() {
		switch len(frames) {
		case 0:
		case 1:
			// A lone frame needs no batch wrapper.
			m.statUnbatched++
			out = append(out, types.Envelope{
				From: m.cfg.ProcessID, To: to,
				Layer: frames[0].Layer, Group: frames[0].Group, Msg: frames[0].Msg,
			})
		default:
			m.statBatches++
			m.statCoalesced += uint64(len(frames))
			out = append(out, types.Envelope{
				From: m.cfg.ProcessID, To: to, Layer: types.LayerLocal,
				Msg: types.ShardBatch{Frames: frames},
			})
		}
		frames, size = nil, 0
	}
	for _, env := range envs {
		w := msgWeight(env.Msg)
		if w >= m.cfg.MaxBatchBytes {
			// Too large to share a datagram: out alone, batch continues.
			m.statUnbatched++
			out = append(out, env)
			continue
		}
		if size+w > m.cfg.MaxBatchBytes {
			flush()
		}
		frames = append(frames, types.ShardFrame{Group: env.Group, Layer: env.Layer, Msg: env.Msg})
		size += w
	}
	flush()
	return out
}

// msgWeight estimates a message's encoded size for the coalescing budget:
// entry payloads dominate, everything else is framing.
func msgWeight(m types.Message) int {
	const base = 96
	switch v := m.(type) {
	case types.AppendEntries:
		n := base
		for _, e := range v.Entries {
			n += types.EntryWireSize(e)
		}
		return n
	case types.ProposeEntry:
		return base + types.EntryWireSize(v.Entry)
	case types.VoteEntry:
		return base + types.EntryWireSize(v.Entry)
	case types.RequestVoteResp:
		n := base
		for _, e := range v.SelfApproved {
			n += types.EntryWireSize(e)
		}
		return n
	case types.InstallSnapshot:
		return base + len(v.Data)
	default:
		return base
	}
}

// DrainCommitted implements runtime.Machine; multi-group output is drained
// through DrainGroupCommitted instead.
func (m *Manager) DrainCommitted(dst []types.Entry) []types.Entry { return dst }

// DrainResolved implements runtime.Machine (see DrainGroupResolved).
func (m *Manager) DrainResolved(dst []types.Resolution) []types.Resolution { return dst }

// DrainGroupCommitted appends every group's newly committed entries to dst
// in per-group commit order, applying shard lifecycle entries (splits and
// merges) as they stream past — that is the point where every member
// process mutates its routing table identically.
func (m *Manager) DrainGroupCommitted(dst []runtime.GroupEntry) []runtime.GroupEntry {
	// Index-based loop: applySplit appends the daughter to m.order, and the
	// daughter has no output yet.
	for i := 0; i < len(m.order); i++ {
		g := m.order[i]
		m.entryBuf = g.core.DrainCommitted(m.entryBuf[:0])
		for _, e := range m.entryBuf {
			switch e.Kind {
			case types.KindShardSplit:
				m.applySplit(g, e)
			case types.KindShardMerge:
				m.applyMerge(g, e)
			}
			dst = append(dst, runtime.GroupEntry{Group: g.id, Entry: e})
		}
	}
	clear(m.entryBuf)
	return dst
}

// DrainGroupResolved appends every group's proposal resolutions to dst.
func (m *Manager) DrainGroupResolved(dst []runtime.GroupResolution) []runtime.GroupResolution {
	for _, g := range m.order {
		m.resBuf = g.core.DrainResolved(m.resBuf[:0])
		for _, r := range m.resBuf {
			dst = append(dst, runtime.GroupResolution{Group: g.id, Resolution: r})
		}
	}
	return dst
}

// DrainGroupReadDone appends every group's resolved reads to dst,
// translating core-local tokens back to the process-wide ones Read
// returned.
func (m *Manager) DrainGroupReadDone(dst []runtime.GroupRead) []runtime.GroupRead {
	for _, g := range m.order {
		m.readBuf = g.core.DrainReadDone(m.readBuf[:0])
		for _, r := range m.readBuf {
			key := shardReadKey{gid: g.id, token: r.ID}
			if pub, ok := m.readMap[key]; ok {
				delete(m.readMap, key)
				r.ID = pub
			}
			dst = append(dst, runtime.GroupRead{Group: g.id, Done: r})
		}
	}
	return dst
}

// PendingProposals counts unresolved proposals across all groups.
func (m *Manager) PendingProposals() int {
	n := 0
	for _, g := range m.order {
		n += g.core.PendingProposals()
	}
	return n
}

// Metrics merges every group's core counters (summed across groups) with
// the manager's own shard.* counters.
func (m *Manager) Metrics() map[string]uint64 {
	out := make(map[string]uint64)
	for _, g := range m.order {
		for k, v := range g.core.Metrics() {
			out[k] += v
		}
	}
	live := uint64(0)
	for _, g := range m.order {
		if !g.retired {
			live++
		}
	}
	out["shard.gauge.groups"] = live
	out["shard.proposals_routed"] = m.statProposals
	out["shard.coalesced_frames"] = m.statCoalesced
	out["shard.batches_sent"] = m.statBatches
	out["shard.sent_unbatched"] = m.statUnbatched
	out["shard.frames_received"] = m.statFramesIn
	out["shard.dropped_unknown_group"] = m.statDropped
	out["shard.splits_applied"] = m.statSplits
	out["shard.merges_applied"] = m.statMerges
	out["shard.groups_retired"] = m.statRetired
	out["shard.leader_transfers"] = m.statTransfers
	out["shard.seed_bytes"] = m.statSeedBytes
	out["shard.meta_replayed"] = m.statMetaReplay
	return out
}

var (
	_ runtime.Machine      = (*Manager)(nil)
	_ runtime.GroupOutputs = (*Manager)(nil)
	_ runtime.Synced       = (*Manager)(nil)
)
