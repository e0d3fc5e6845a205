// Package storage provides the stable storage the paper assumes every site
// has ("each site has a means of stable storage that can be read from upon
// recovery").
//
// Two implementations are provided:
//
//   - Memory: an in-process store that survives simulated crashes (the
//     simulation harness keeps it while restarting the node state machine);
//   - WAL: a file-backed write-ahead log with CRC-framed records and
//     torn-tail recovery, for real deployments (cmd/hraft-node).
//
// The consensus cores persist three things, matching the paper's persistent
// state: currentTerm, votedFor and the log entries (with their approval
// markers). commitIndex is volatile and relearned from the leader.
package storage

import (
	"github.com/hraft-io/hraft/internal/types"
)

// HardState is the persistent non-log state of a site.
type HardState struct {
	// Term is the site's current term.
	Term types.Term
	// VotedFor is the candidate the site voted for in Term (None if no
	// vote).
	VotedFor types.NodeID
}

// Storage is the stable-storage interface the consensus cores write
// through. Implementations must make each call durable before returning —
// unless they also implement Grouped with GroupCommit() true, in which case
// appends may be acknowledged from a buffer and the caller must gate
// everything externally visible on the durability horizon (DurableLSN).
type Storage interface {
	// SetHardState durably records term and vote.
	SetHardState(hs HardState) error
	// AppendEntry durably records the entry at e.Index (inserting or
	// replacing that slot).
	AppendEntry(e types.Entry) error
	// TruncateSuffix durably removes all entries with index > idx (classic
	// Raft conflict resolution).
	TruncateSuffix(idx types.Index) error
	// SaveSnapshot durably records a snapshot, making it the recovery base.
	// A later snapshot replaces an earlier one. Saving a snapshot does not
	// by itself remove log entries; callers follow with TruncatePrefix.
	SaveSnapshot(snap types.Snapshot) error
	// TruncatePrefix durably removes all entries with index <= idx (log
	// compaction after a snapshot covering the prefix has been saved).
	TruncatePrefix(idx types.Index) error
	// Load returns the persisted state and all persisted entries sorted
	// ascending by index, reflecting inserts, replacements, truncations and
	// compactions. Entries covered by a saved snapshot are not returned.
	Load() (HardState, []types.Entry, error)
	// LoadSnapshot returns the latest saved snapshot (ok=false if none).
	LoadSnapshot() (types.Snapshot, bool, error)
	// Close releases resources. The store must remain loadable afterwards.
	Close() error
}

// Grouped extends Storage with group commit: mutations are acknowledged
// from a buffer and made durable in batches (one buffered write + one fsync
// per batch). Every mutation is assigned a log sequence number (LSN);
// DurableLSN reports how far the fsync horizon has advanced. The consensus
// cores hold everything externally visible — outbound messages, committed
// entries, resolutions, their own vote/match self-acknowledgements — until
// the records they depend on are durable, so the ack-after-fsync contract
// of classic storage is preserved end to end while fsyncs amortize across
// concurrent proposals.
type Grouped interface {
	Storage
	// GroupCommit reports whether the store is actually deferring
	// durability. Implementations that expose LSNs but sync inline (for
	// uniformity) return false and need no gating.
	GroupCommit() bool
	// LastLSN returns the LSN of the most recently accepted mutation (0 if
	// none yet).
	LastLSN() uint64
	// DurableLSN returns the highest LSN known durable. Always ≤ LastLSN;
	// equal when nothing is pending.
	DurableLSN() uint64
	// OnDurable registers a callback invoked (from the store's flush
	// context, without internal locks held) after each batch becomes
	// durable, with the new durable LSN. At most one callback is retained.
	OnDurable(fn func(lsn uint64))
	// Sync forces everything pending durable and blocks until
	// DurableLSN == LastLSN (or a write error, which is returned and
	// sticky).
	Sync() error
}

// AsGrouped returns s as a group-commit store when it both implements
// Grouped and actually defers durability; nil otherwise (the caller then
// treats every mutation as durable on return, as before).
func AsGrouped(s Storage) Grouped {
	if g, ok := s.(Grouped); ok && g.GroupCommit() {
		return g
	}
	return nil
}

// Memory is an in-memory Storage. Its zero value is not usable; call
// NewMemory.
type Memory struct {
	hs      HardState
	entries map[types.Index]types.Entry
	snap    types.Snapshot
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{entries: make(map[types.Index]types.Entry)}
}

// SetHardState implements Storage.
func (m *Memory) SetHardState(hs HardState) error {
	m.hs = hs
	return nil
}

// AppendEntry implements Storage.
func (m *Memory) AppendEntry(e types.Entry) error {
	m.entries[e.Index] = e
	return nil
}

// TruncateSuffix implements Storage.
func (m *Memory) TruncateSuffix(idx types.Index) error {
	for i := range m.entries {
		if i > idx {
			delete(m.entries, i)
		}
	}
	return nil
}

// SaveSnapshot implements Storage.
func (m *Memory) SaveSnapshot(snap types.Snapshot) error {
	m.snap = snap
	return nil
}

// TruncatePrefix implements Storage.
func (m *Memory) TruncatePrefix(idx types.Index) error {
	for i := range m.entries {
		if i <= idx {
			delete(m.entries, i)
		}
	}
	return nil
}

// Load implements Storage.
func (m *Memory) Load() (HardState, []types.Entry, error) {
	out := make([]types.Entry, 0, len(m.entries))
	for _, e := range m.entries {
		if e.Index <= m.snap.Meta.LastIndex {
			continue
		}
		out = append(out, e)
	}
	sortEntries(out)
	return m.hs, out, nil
}

// LoadSnapshot implements Storage.
func (m *Memory) LoadSnapshot() (types.Snapshot, bool, error) {
	if m.snap.IsZero() {
		return types.Snapshot{}, false, nil
	}
	return m.snap, true, nil
}

// Close implements Storage.
func (m *Memory) Close() error { return nil }

func sortEntries(es []types.Entry) {
	// Insertion sort: entry sets are nearly sorted already and this avoids
	// importing sort for a hot path used only on recovery.
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].Index < es[j-1].Index; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

var _ Storage = (*Memory)(nil)
