package storage

import "github.com/hraft-io/hraft/internal/types"

// ShardMemory is the in-memory analogue of a multi-group WAL for the
// simulation harness: many consensus groups in one process share one
// deferred-durability store with a single LSN space. Mutations from every
// group buffer into the same op list and are acknowledged immediately; one
// Sync (the harness schedules it on virtual time, modeling the shared fsync
// window) makes every group's pending writes durable at once, and Crash
// discards all of them together — exactly the failure coupling WALGroup
// views of one directory have on a real disk.
//
// Not safe for concurrent use; the harness is single-threaded on virtual
// time.
type ShardMemory struct {
	groups    map[types.GroupID]*shardMemGroup
	ops       []func() error
	lastLSN   uint64
	durLSN    uint64
	onDurable map[types.GroupID]func(uint64)
}

// NewShardMemory returns an empty multi-group store.
func NewShardMemory() *ShardMemory {
	return &ShardMemory{
		groups:    make(map[types.GroupID]*shardMemGroup),
		onDurable: make(map[types.GroupID]func(uint64)),
	}
}

// Group returns the named group's Storage view, creating it on first use.
// The durable state survives Crash; the view survives too, so a restarted
// node re-opens the same group and loads what was synced.
func (s *ShardMemory) Group(gid types.GroupID) *shardMemGroup {
	if gid == "" {
		panic("storage: Group called with empty group ID")
	}
	g, ok := s.groups[gid]
	if !ok {
		g = &shardMemGroup{s: s, id: gid, synced: NewMemory()}
		s.groups[gid] = g
	}
	return g
}

// Pending reports whether unsynced mutations are buffered for any group.
func (s *ShardMemory) Pending() bool { return len(s.ops) > 0 }

// LastLSN returns the shared acknowledged horizon across all groups.
func (s *ShardMemory) LastLSN() uint64 { return s.lastLSN }

// DurableLSN returns the shared durable horizon across all groups.
func (s *ShardMemory) DurableLSN() uint64 { return s.durLSN }

// Sync applies every group's buffered mutations to durable state, advances
// the shared horizon and fires each group's callback with the shared LSN.
func (s *ShardMemory) Sync() error {
	if len(s.ops) == 0 {
		return nil
	}
	for _, op := range s.ops {
		if err := op(); err != nil {
			return err
		}
	}
	s.ops = s.ops[:0]
	s.durLSN = s.lastLSN
	for _, fn := range s.onDurable {
		fn(s.durLSN)
	}
	return nil
}

// Crash discards every group's unsynced mutations, modeling power loss
// before the shared fsync window closed. LSN counters keep advancing
// monotonically so restarted nodes' gates never see the horizon regress.
func (s *ShardMemory) Crash() {
	s.ops = nil
	s.lastLSN = s.durLSN
	for gid := range s.onDurable {
		delete(s.onDurable, gid)
	}
}

// shardMemGroup is one group's Storage+Grouped view over a ShardMemory.
type shardMemGroup struct {
	s      *ShardMemory
	id     types.GroupID
	synced *Memory
}

func (g *shardMemGroup) defer_(op func(*Memory) error) error {
	g.s.ops = append(g.s.ops, func() error { return op(g.synced) })
	g.s.lastLSN++
	return nil
}

// SetHardState implements Storage (buffered until the shared Sync).
func (g *shardMemGroup) SetHardState(hs HardState) error {
	return g.defer_(func(m *Memory) error { return m.SetHardState(hs) })
}

// AppendEntry implements Storage (buffered until the shared Sync).
func (g *shardMemGroup) AppendEntry(e types.Entry) error {
	return g.defer_(func(m *Memory) error { return m.AppendEntry(e) })
}

// TruncateSuffix implements Storage (buffered until the shared Sync).
func (g *shardMemGroup) TruncateSuffix(idx types.Index) error {
	return g.defer_(func(m *Memory) error { return m.TruncateSuffix(idx) })
}

// SaveSnapshot implements Storage (buffered until the shared Sync).
func (g *shardMemGroup) SaveSnapshot(snap types.Snapshot) error {
	return g.defer_(func(m *Memory) error { return m.SaveSnapshot(snap) })
}

// TruncatePrefix implements Storage (buffered until the shared Sync).
func (g *shardMemGroup) TruncatePrefix(idx types.Index) error {
	return g.defer_(func(m *Memory) error { return m.TruncatePrefix(idx) })
}

// Load implements Storage, returning durable state only (see GroupedMemory).
func (g *shardMemGroup) Load() (HardState, []types.Entry, error) {
	return g.synced.Load()
}

// LoadSnapshot implements Storage (durable state only).
func (g *shardMemGroup) LoadSnapshot() (types.Snapshot, bool, error) {
	return g.synced.LoadSnapshot()
}

// Close implements Storage without flushing: the harness controls
// durability explicitly.
func (g *shardMemGroup) Close() error { return nil }

// GroupCommit implements Grouped.
func (g *shardMemGroup) GroupCommit() bool { return true }

// LastLSN implements Grouped (shared across all groups).
func (g *shardMemGroup) LastLSN() uint64 { return g.s.lastLSN }

// DurableLSN implements Grouped (shared across all groups).
func (g *shardMemGroup) DurableLSN() uint64 { return g.s.durLSN }

// OnDurable implements Grouped. Dropped on Crash — a restarted node
// re-registers its own callback.
func (g *shardMemGroup) OnDurable(fn func(lsn uint64)) { g.s.onDurable[g.id] = fn }

// Sync implements Grouped by flushing the whole shared store.
func (g *shardMemGroup) Sync() error { return g.s.Sync() }

var (
	_ Storage = (*shardMemGroup)(nil)
	_ Grouped = (*shardMemGroup)(nil)
)
