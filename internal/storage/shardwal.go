package storage

import (
	"encoding/binary"
	"fmt"

	"github.com/hraft-io/hraft/internal/types"
)

// WALGroup is one consensus group's Storage view over a shared WAL
// directory. A shard manager multiplexes many groups over one process; each
// group gets its own fully independent log, hard state and snapshot, but all
// groups share the directory, the segments, the group-commit buffer and the
// LSN space. The payoff is the fsync path: concurrent mutations from
// different groups land in the same pending batch, so one fsync makes every
// group's writes durable at once instead of one fsync per group.
//
// Obtain views with WAL.Group. A view's Close is a no-op — the owner closes
// the parent WAL, which flushes and closes everything.
type WALGroup struct {
	w  *WAL
	id types.GroupID

	// Replayed state (guarded by w.mu).
	hs       HardState
	entries  map[types.Index]types.Entry
	snap     types.Snapshot
	snapMeta types.SnapshotMeta
	// floorIdx is the group's compaction boundary: its last TruncatePrefix
	// argument, re-seeded from its snapshot on recovery. A shared segment is
	// droppable only once every group's floor covers its slice (see
	// segCoveredLocked).
	floorIdx types.Index
}

// Group returns the named group's Storage view. All views share the parent's
// flusher and LSN space; the flat namespace (the WAL's own Storage methods)
// stays fully independent. Panics on an empty group ID — that's the flat
// namespace, not a group.
func (w *WAL) Group(gid types.GroupID) *WALGroup {
	if gid == "" {
		panic("storage: Group called with empty group ID")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ensureGroupLocked(gid)
}

// Groups lists the group IDs known to this WAL (replayed or created),
// in no particular order.
func (w *WAL) Groups() []types.GroupID {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]types.GroupID, 0, len(w.groups))
	for gid := range w.groups {
		out = append(out, gid)
	}
	return out
}

// ID returns the group this view writes to.
func (g *WALGroup) ID() types.GroupID { return g.id }

// SetHardState implements Storage.
func (g *WALGroup) SetHardState(hs HardState) error {
	w := g.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendBodyLocked(groupBody(recGroupHardState, g.id, hardStateBody(hs)[1:])); err != nil {
		return err
	}
	g.hs = hs
	return nil
}

// AppendEntry implements Storage. Encoded into the parent's reused scratch
// buffer, so steady-state appends do not allocate — same hot path as the
// flat namespace, plus the group prefix.
func (g *WALGroup) AppendEntry(e types.Entry) error {
	w := g.w
	w.mu.Lock()
	defer w.mu.Unlock()
	w.recBuf = append(w.recBuf[:0], recGroupEntry)
	w.recBuf = binary.AppendUvarint(w.recBuf, uint64(len(g.id)))
	w.recBuf = append(w.recBuf, g.id...)
	w.recBuf = types.AppendEntryTo(w.recBuf, e)
	// Count the entry toward the active segment's per-group maxima before
	// the append — the append may roll the segment, and the sealed metadata
	// must cover every entry the sealed file carries.
	if e.Index > w.activeGLast[g.id] {
		w.activeGLast[g.id] = e.Index
	}
	if err := w.appendBodyLocked(w.recBuf); err != nil {
		return err
	}
	g.entries[e.Index] = e
	return nil
}

// TruncateSuffix implements Storage. Sealed-segment group maxima are
// re-clamped so compaction can still drop a segment whose surviving entries
// all sit below the group's snapshot.
func (g *WALGroup) TruncateSuffix(idx types.Index) error {
	w := g.w
	w.mu.Lock()
	defer w.mu.Unlock()
	body := groupBody(recGroupTruncate, g.id, binary.AppendUvarint(nil, uint64(idx)))
	if err := w.appendBodyLocked(body); err != nil {
		return err
	}
	for i := range g.entries {
		if i > idx {
			delete(g.entries, i)
		}
	}
	if last, ok := w.activeGLast[g.id]; ok && last > idx {
		w.activeGLast[g.id] = idx
	}
	clamped := false
	for i := range w.sealed {
		if last, ok := w.sealed[i].GLast[g.id]; ok && last > idx {
			w.sealed[i].GLast[g.id] = idx
			clamped = true
		}
	}
	if clamped {
		return w.writeManifestLocked()
	}
	return nil
}

// SaveSnapshot implements Storage: written atomically to the group's own
// sidecar (snap-<hex group ID>), then marked in the shared log.
func (g *WALGroup) SaveSnapshot(snap types.Snapshot) error {
	if snap.IsZero() {
		return fmt.Errorf("storage: save empty snapshot")
	}
	if err := writeSnapshotFile(groupSnapPath(g.w.dir, g.id), snap); err != nil {
		return err
	}
	w := g.w
	w.mu.Lock()
	defer w.mu.Unlock()
	// Marker: meta only (no state bytes) — the sidecar holds the data.
	marker := types.Snapshot{Meta: snap.Meta}
	if err := w.appendBodyLocked(groupBody(recGroupSnapshot, g.id, types.EncodeSnapshot(marker))); err != nil {
		return err
	}
	g.snap = snap
	g.snapMeta = snap.Meta
	return nil
}

// TruncatePrefix implements Storage: raises this group's compaction floor
// and drops any sealed segment now covered by every namespace's floor. A
// segment interleaving several groups' records is only reclaimed once the
// last straggler group compacts past its slice.
func (g *WALGroup) TruncatePrefix(idx types.Index) error {
	w := g.w
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range g.entries {
		if i <= idx {
			delete(g.entries, i)
		}
	}
	if idx > g.floorIdx {
		g.floorIdx = idx
	}
	return w.dropCoveredLocked()
}

// Load implements Storage.
func (g *WALGroup) Load() (HardState, []types.Entry, error) {
	w := g.w
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]types.Entry, 0, len(g.entries))
	for _, e := range g.entries {
		if e.Index <= g.snap.Meta.LastIndex {
			continue
		}
		out = append(out, e)
	}
	sortEntries(out)
	return g.hs, out, nil
}

// LoadSnapshot implements Storage.
func (g *WALGroup) LoadSnapshot() (types.Snapshot, bool, error) {
	w := g.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if g.snap.IsZero() {
		return types.Snapshot{}, false, nil
	}
	return g.snap, true, nil
}

// Close implements Storage as a no-op: the view does not own the directory.
// Close the parent WAL to flush and release everything.
func (g *WALGroup) Close() error { return nil }

// GroupCommit implements Grouped (shared with the parent).
func (g *WALGroup) GroupCommit() bool { return g.w.opt.GroupCommit }

// LastLSN implements Grouped. The LSN space is shared across all groups and
// the flat namespace — that sharing is what batches fsyncs across groups.
func (g *WALGroup) LastLSN() uint64 { return g.w.LastLSN() }

// DurableLSN implements Grouped.
func (g *WALGroup) DurableLSN() uint64 { return g.w.DurableLSN() }

// OnDurable implements Grouped. Each group's callback fires with the shared
// LSN after every durable batch, alongside the parent's own callback.
func (g *WALGroup) OnDurable(fn func(lsn uint64)) {
	w := g.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.groupDurable == nil {
		w.groupDurable = make(map[types.GroupID]func(uint64))
	}
	w.groupDurable[g.id] = fn
}

// Sync implements Grouped: flushes the shared buffer, so it also makes every
// other group's pending writes durable.
func (g *WALGroup) Sync() error { return g.w.Sync() }

var (
	_ Storage = (*WALGroup)(nil)
	_ Grouped = (*WALGroup)(nil)
)
