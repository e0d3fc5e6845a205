package types

import "fmt"

// SnapshotMeta describes the log prefix a snapshot replaces. Everything a
// site needs to resume consensus above the compacted prefix is here: the
// boundary entry's coordinates and the membership in effect at it.
type SnapshotMeta struct {
	// LastIndex is the index of the last log entry covered by the
	// snapshot. All entries at or below it are compacted away.
	LastIndex Index
	// LastTerm is the term of the entry at LastIndex, kept for the
	// AppendEntries consistency check at the boundary.
	LastTerm Term
	// Config is the membership configuration in effect at LastIndex.
	Config Config
	// ConfigIndex is the log index the configuration came from (0 for a
	// bootstrap configuration).
	ConfigIndex Index
}

// Snapshot is a point-in-time image of the replicated state machine: the
// application's serialized state plus the metadata locating it in the log.
// Snapshots cover only committed entries.
type Snapshot struct {
	// Meta locates the snapshot in the log.
	Meta SnapshotMeta
	// Data is the application state-machine image (opaque to consensus;
	// produced and consumed by a Snapshotter).
	Data []byte
	// Sessions is the encoded client-session registry as of Meta.LastIndex
	// (see internal/session). It makes proposal de-duplication survive
	// restarts and log compaction: a replica restored from this snapshot
	// still recognizes retries of proposals the compacted prefix applied.
	// Empty when no sessions were ever opened.
	Sessions []byte
}

// IsZero reports whether the snapshot is unset (no compaction yet).
func (s Snapshot) IsZero() bool { return s.Meta.LastIndex == 0 }

// Clone deep-copies the snapshot.
func (s Snapshot) Clone() Snapshot {
	c := s
	c.Meta.Config = s.Meta.Config.Clone()
	if s.Data != nil {
		c.Data = append([]byte(nil), s.Data...)
	}
	if s.Sessions != nil {
		c.Sessions = append([]byte(nil), s.Sessions...)
	}
	return c
}

// String summarizes the snapshot for traces.
func (s Snapshot) String() string {
	return fmt.Sprintf("snapshot{i=%d t=%d cfg=%s len=%d sess=%d}",
		s.Meta.LastIndex, s.Meta.LastTerm, s.Meta.Config, len(s.Data), len(s.Sessions))
}

// Snapshotter is implemented by the application state machine to enable
// log compaction. Consensus calls Snapshot when the compaction threshold
// is reached and Restore when recovering from (or being sent) a snapshot.
type Snapshotter interface {
	// Snapshot serializes the state machine. applied is the index of the
	// last committed entry reflected in data; the log is compacted no
	// further than applied, so a state machine that applies commits
	// asynchronously is never snapshotted ahead of itself.
	Snapshot() (data []byte, applied Index, err error)
	// Restore replaces the state machine with the snapshot contents. It is
	// called on open when stable storage holds a snapshot, and when the
	// leader installs a snapshot on a lagging follower.
	Restore(snap Snapshot) error
}

// EncodeSnapshot serializes a snapshot (used by the WAL sidecar and the
// wire codec).
func EncodeSnapshot(s Snapshot) []byte {
	var w writer
	w.snapshot(s)
	return w.buf
}

// DecodeSnapshot parses a snapshot produced by EncodeSnapshot.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	r := reader{buf: data}
	s := r.snapshot()
	if r.err != nil {
		return Snapshot{}, fmt.Errorf("types: decode snapshot: %w", r.err)
	}
	return s, nil
}

func (w *writer) snapshot(s Snapshot) {
	w.u64(uint64(s.Meta.LastIndex))
	w.u64(uint64(s.Meta.LastTerm))
	w.u64(uint64(s.Meta.ConfigIndex))
	w.u64(uint64(len(s.Meta.Config.Members)))
	for _, m := range s.Meta.Config.Members {
		w.str(string(m))
	}
	w.bytes(s.Data)
	w.bytes(s.Sessions)
}

func (r *reader) snapshot() Snapshot {
	var s Snapshot
	s.Meta.LastIndex = Index(r.u64())
	s.Meta.LastTerm = Term(r.u64())
	s.Meta.ConfigIndex = Index(r.u64())
	n := r.u64()
	if r.err == nil && n > uint64(len(r.buf)) {
		r.err = ErrBadFrame
		return s
	}
	members := make([]NodeID, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		members = append(members, NodeID(r.str()))
	}
	s.Meta.Config = Config{Members: members}
	s.Data = r.bytes()
	s.Sessions = r.bytes()
	return s
}
