package storage

import "github.com/hraft-io/hraft/internal/types"

// GroupedMemory wraps a Memory with deferred durability for the simulation
// harness: mutations are acknowledged immediately but buffered, and only
// applied to the underlying (crash-surviving) Memory when Sync runs — the
// harness schedules Sync on virtual time to model the group-commit fsync
// window, and Crash discards everything not yet synced, exactly like a real
// machine losing its page cache.
//
// Not safe for concurrent use; the harness is single-threaded on virtual
// time.
type GroupedMemory struct {
	synced    *Memory
	ops       []func(*Memory) error
	lastLSN   uint64
	durLSN    uint64
	onDurable func(uint64)
}

// NewGroupedMemory wraps m (which holds the durable state and survives
// simulated crashes).
func NewGroupedMemory(m *Memory) *GroupedMemory {
	return &GroupedMemory{synced: m}
}

func (g *GroupedMemory) defer_(op func(*Memory) error) error {
	g.ops = append(g.ops, op)
	g.lastLSN++
	return nil
}

// SetHardState implements Storage (buffered until Sync).
func (g *GroupedMemory) SetHardState(hs HardState) error {
	return g.defer_(func(m *Memory) error { return m.SetHardState(hs) })
}

// AppendEntry implements Storage (buffered until Sync).
func (g *GroupedMemory) AppendEntry(e types.Entry) error {
	return g.defer_(func(m *Memory) error { return m.AppendEntry(e) })
}

// TruncateSuffix implements Storage (buffered until Sync).
func (g *GroupedMemory) TruncateSuffix(idx types.Index) error {
	return g.defer_(func(m *Memory) error { return m.TruncateSuffix(idx) })
}

// SaveSnapshot implements Storage (buffered until Sync).
func (g *GroupedMemory) SaveSnapshot(snap types.Snapshot) error {
	return g.defer_(func(m *Memory) error { return m.SaveSnapshot(snap) })
}

// TruncatePrefix implements Storage (buffered until Sync).
func (g *GroupedMemory) TruncatePrefix(idx types.Index) error {
	return g.defer_(func(m *Memory) error { return m.TruncatePrefix(idx) })
}

// Load implements Storage, returning durable state only: cores load at
// boot, when nothing is pending, and after a crash the buffered suffix is
// exactly what a real machine would have lost.
func (g *GroupedMemory) Load() (HardState, []types.Entry, error) {
	return g.synced.Load()
}

// LoadSnapshot implements Storage (durable state only).
func (g *GroupedMemory) LoadSnapshot() (types.Snapshot, bool, error) {
	return g.synced.LoadSnapshot()
}

// Close implements Storage without flushing: the harness controls
// durability explicitly.
func (g *GroupedMemory) Close() error { return nil }

// GroupCommit implements Grouped.
func (g *GroupedMemory) GroupCommit() bool { return true }

// LastLSN implements Grouped.
func (g *GroupedMemory) LastLSN() uint64 { return g.lastLSN }

// DurableLSN implements Grouped.
func (g *GroupedMemory) DurableLSN() uint64 { return g.durLSN }

// OnDurable implements Grouped.
func (g *GroupedMemory) OnDurable(fn func(lsn uint64)) { g.onDurable = fn }

// Sync implements Grouped: applies every buffered mutation to the durable
// Memory, advances the horizon and fires the callback.
func (g *GroupedMemory) Sync() error {
	if len(g.ops) == 0 {
		return nil
	}
	for _, op := range g.ops {
		if err := op(g.synced); err != nil {
			return err
		}
	}
	g.ops = g.ops[:0]
	g.durLSN = g.lastLSN
	if g.onDurable != nil {
		g.onDurable(g.durLSN)
	}
	return nil
}

// Pending reports whether unsynced mutations are buffered (the harness
// schedules a flush event when true).
func (g *GroupedMemory) Pending() bool { return len(g.ops) > 0 }

// Crash discards every unsynced mutation, modeling power loss before the
// fsync window closed. The LSN counters keep advancing monotonically so a
// restarted node's gates never see the horizon move backwards.
func (g *GroupedMemory) Crash() {
	g.ops = nil
	g.lastLSN = g.durLSN
}

var _ Grouped = (*GroupedMemory)(nil)
