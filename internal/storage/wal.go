package storage

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

// WAL layout (format version 5): a directory of fixed-size segments plus a
// manifest and a snapshot sidecar.
//
//	<path>/
//	  MANIFEST        sealed-segment index (JSON, atomically replaced)
//	  00000001.seg    sealed segment
//	  00000002.seg    sealed segment
//	  00000003.seg    active segment (not listed in the manifest)
//	  snap            snapshot sidecar (atomically replaced)
//
// Record framing inside a segment:
//
//	len(u32 LE) | crc32c(u32 LE, over kind+payload) | kind(1) | payload
//
// Every segment starts with a format record followed by the hard state and
// snapshot marker current at its creation, so any suffix of segments is
// self-contained: recovery replays the retained segments in order and never
// needs a deleted predecessor for hard state or snapshot position.
//
// Sealing: when the active segment exceeds SegmentBytes it is fsynced, a
// fresh active segment (with bootstrap records) is created and fsynced, and
// only then is the manifest rewritten to list the sealed segment. A crash
// between those steps leaves an unlisted full segment, which recovery
// adopts (any segment on disk with a sequence number above the manifest's
// is trusted modulo CRC, with torn-tail repair).
//
// Compaction (TruncatePrefix) deletes whole sealed segments whose highest
// entry index is at or below the boundary: the manifest is rewritten first
// (dropping them and advancing the floor), then the files are unlinked —
// O(dropped segments), no rewrite of retained data. A crash in between
// leaves unlisted segments below the floor, which recovery garbage-collects.
//
// Snapshots live in the `snap` sidecar with the same len|crc framing around
// an encoded types.Snapshot, written to a temporary file, fsynced and
// renamed into place. After the sidecar lands a recSnapshot marker carrying
// the snapshot metadata is appended to the log; on recovery the sidecar is
// authoritative (it may be one save ahead of the marker), but a marker
// without a loadable sidecar means the compacted prefix is lost, which is
// reported as corruption.
//
// Group commit: with WALOptions.GroupCommit set, mutations are framed into
// an in-memory buffer and acknowledged immediately; a flusher goroutine
// writes and fsyncs the buffer when it reaches SyncBytes, when SyncWindow
// elapses, or eagerly when the window is negative. Each mutation carries an
// LSN; DurableLSN advances per flushed batch and OnDurable notifies the
// host, which releases the consensus outputs gated on it. Without
// GroupCommit every mutation is written and fsynced before returning, as
// the classic Storage contract requires.
const (
	recHardState byte = 1
	recEntry     byte = 2
	recTruncate  byte = 3
	recSnapshot  byte = 4
	// recFormat is the first record of every segment and carries the
	// format version, so a log written in any other format is rejected
	// instead of misdecoded.
	recFormat byte = 5
	// Group-prefixed record kinds: the same mutations as above, carrying
	// the ID of the consensus group they belong to. A shard manager
	// multiplexes many groups over one WAL directory; their records
	// interleave in the shared segments (and the shared group-commit
	// buffer, so one fsync covers every group's batch) and are
	// demultiplexed by this prefix on replay.
	recGroupHardState byte = 6
	recGroupEntry     byte = 7
	recGroupTruncate  byte = 8
	recGroupSnapshot  byte = 9
)

// walFormatVersion is the one on-disk format this build reads and writes,
// in every segment's format record and in the manifest. Any other version
// is ErrCorrupt.
const walFormatVersion = 5

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a WAL whose non-tail contents fail validation.
var ErrCorrupt = errors.New("storage: corrupt wal")

// WALOptions tunes the segmented WAL. The zero value is a fully
// synchronous store (every mutation fsynced before returning).
type WALOptions struct {
	// GroupCommit batches concurrent mutations into one buffered write +
	// one fsync. Acks then run ahead of durability; the consensus host
	// gates externally visible output on DurableLSN (see Grouped).
	GroupCommit bool
	// SyncWindow bounds how long an acknowledged mutation may wait for its
	// fsync batch: 0 means the 2ms default, negative flushes eagerly
	// (every flusher pass takes whatever accumulated — natural batching
	// under concurrency with no added latency). Ignored without
	// GroupCommit.
	SyncWindow time.Duration
	// SyncBytes flushes the batch early once this many buffered bytes
	// accumulate (default 256 KiB).
	SyncBytes int
	// SegmentBytes seals the active segment once it grows past this size
	// (default 4 MiB).
	SegmentBytes int
	// FsyncObserver, when set, is called after every durable batch with
	// the number of records and bytes it carried and how long the
	// write+fsync took. Called without internal locks held.
	FsyncObserver func(records, bytes int, took time.Duration)
}

func (o *WALOptions) defaults() {
	if o.SyncWindow == 0 {
		o.SyncWindow = 2 * time.Millisecond
	}
	if o.SyncBytes <= 0 {
		o.SyncBytes = 256 << 10
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
}

// segMeta describes one sealed segment in the manifest.
type segMeta struct {
	// Seq is the segment's sequence number (its file name).
	Seq uint64 `json:"seq"`
	// Last is the highest entry index the segment contains (0 if none),
	// clamped when TruncateSuffix drops a suffix: compaction may delete
	// the segment once Last falls inside the snapshot.
	Last types.Index `json:"last"`
	// GLast is Last per consensus group for segments carrying group
	// records: a multi-group segment is droppable only once every group's
	// compaction boundary covers its slice of that group's log.
	GLast map[types.GroupID]types.Index `json:"glast,omitempty"`
}

// manifest is the JSON document naming the sealed segments.
type manifest struct {
	Version  int       `json:"version"`
	Floor    uint64    `json:"floor"` // lowest live segment sequence
	Segments []segMeta `json:"segments"`
}

// WAL is a file-backed Storage: a directory of CRC-framed segments with a
// manifest, optional group commit, and a snapshot sidecar.
type WAL struct {
	dir string
	opt WALOptions

	mu sync.Mutex
	// Replayed state, kept current so Load never re-reads files.
	hs       HardState
	entries  map[types.Index]types.Entry
	snap     types.Snapshot
	snapMeta types.SnapshotMeta

	// Per-group replayed state for multi-group (sharded) processes; see
	// Group. The flat fields above are the "" namespace and stay fully
	// independent of it.
	groups map[types.GroupID]*WALGroup

	// Segment state.
	sealed      []segMeta // ascending seq
	floor       uint64
	active      *os.File
	activeSeq   uint64
	activeSize  int64
	activeLast  types.Index
	activeGLast map[types.GroupID]types.Index
	// prefixFloor is the flat namespace's last TruncatePrefix boundary,
	// used alongside every group's floor to decide segment droppability.
	prefixFloor types.Index

	// Scratch buffers (reused across records; guarded by mu).
	recBuf []byte
	// replayGLast collects per-group entry maxima while replaySegment runs
	// (recovery only).
	replayGLast map[types.GroupID]types.Index

	// Group commit.
	lastLSN   uint64
	durLSN    uint64
	pend      []byte
	pendRecs  int
	pendFirst time.Time
	force     bool
	onDurable func(uint64)
	// groupDurable holds per-group durability callbacks (see
	// walGroup.OnDurable); all fire with the shared LSN after each batch.
	groupDurable map[types.GroupID]func(uint64)
	syncErr      error
	closed       bool
	kick         chan struct{}
	flushDone    chan struct{}
	cond         *sync.Cond
}

// segName renders a segment file name.
func segName(seq uint64) string { return fmt.Sprintf("%08d.seg", seq) }

func (w *WAL) segPath(seq uint64) string { return filepath.Join(w.dir, segName(seq)) }

// snapPath returns the sidecar path inside the WAL directory.
func snapPath(dir string) string { return filepath.Join(dir, "snap") }

func manifestPath(dir string) string { return filepath.Join(dir, "MANIFEST") }

// OpenWAL opens (or creates) a fully synchronous WAL at path, recovering
// existing state. A torn final record in the active segment is repaired by
// truncation; stale temporaries from interrupted saves are removed.
func OpenWAL(path string) (*WAL, error) {
	return OpenWALOptions(path, WALOptions{})
}

// OpenWALOptions opens a WAL with explicit tuning (see WALOptions).
func OpenWALOptions(path string, opt WALOptions) (*WAL, error) {
	opt.defaults()
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create wal dir: %w", err)
	}
	// A crash can leave partially written temporaries; they are never
	// referenced, so drop them.
	_ = os.Remove(manifestPath(path) + ".tmp")
	_ = os.Remove(snapPath(path) + ".tmp")
	if tmps, err := filepath.Glob(filepath.Join(path, "snap-*.tmp")); err == nil {
		for _, t := range tmps {
			_ = os.Remove(t)
		}
	}

	w := &WAL{
		dir:         path,
		opt:         opt,
		entries:     make(map[types.Index]types.Entry),
		groups:      make(map[types.GroupID]*WALGroup),
		activeGLast: make(map[types.GroupID]types.Index),
		floor:       1,
	}
	w.cond = sync.NewCond(&w.mu)
	man, haveMan, err := readManifest(path)
	if err != nil {
		return nil, err
	}
	if haveMan {
		w.sealed = man.Segments
		w.floor = man.Floor
		if w.floor == 0 {
			w.floor = 1
		}
	}
	if err := w.recoverSegments(); err != nil {
		w.closeFiles()
		return nil, err
	}
	if err := w.loadSidecar(); err != nil {
		w.closeFiles()
		return nil, err
	}
	if opt.GroupCommit {
		w.kick = make(chan struct{}, 1)
		w.flushDone = make(chan struct{})
		go w.flusher()
	}
	return w, nil
}

// readManifest loads the manifest; ok=false when absent (fresh directory or
// pre-manifest crash with only an active segment).
func readManifest(dir string) (manifest, bool, error) {
	data, err := os.ReadFile(manifestPath(dir))
	if errors.Is(err, os.ErrNotExist) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, fmt.Errorf("storage: read manifest: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return manifest{}, false, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if man.Version != walFormatVersion {
		return manifest{}, false, fmt.Errorf("%w: manifest format version %d, this build reads %d",
			ErrCorrupt, man.Version, walFormatVersion)
	}
	sort.Slice(man.Segments, func(i, j int) bool { return man.Segments[i].Seq < man.Segments[j].Seq })
	return man, true, nil
}

// recoverSegments replays the sealed segments strictly, adopts unlisted
// segments above the manifest (torn-tail repaired), garbage-collects
// orphans below the floor, and leaves the highest segment open as active.
func (w *WAL) recoverSegments() error {
	names, err := filepath.Glob(filepath.Join(w.dir, "*.seg"))
	if err != nil {
		return fmt.Errorf("storage: list segments: %w", err)
	}
	onDisk := make(map[uint64]bool, len(names))
	for _, name := range names {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "%08d.seg", &seq); err != nil || seq == 0 {
			continue // not ours
		}
		onDisk[seq] = true
	}
	var maxSealed uint64
	for _, s := range w.sealed {
		if !onDisk[s.Seq] {
			return fmt.Errorf("%w: manifest lists segment %d but %s is missing",
				ErrCorrupt, s.Seq, segName(s.Seq))
		}
		if s.Seq > maxSealed {
			maxSealed = s.Seq
		}
	}
	sealedSet := make(map[uint64]bool, len(w.sealed))
	for _, s := range w.sealed {
		sealedSet[s.Seq] = true
	}
	var adopted []uint64
	dirty := false
	for seq := range onDisk {
		if sealedSet[seq] {
			continue
		}
		if seq > maxSealed && seq >= w.floor {
			adopted = append(adopted, seq)
			continue
		}
		// Below the floor (or shadowed by the manifest): a compaction
		// deleted it from the manifest but crashed before the unlink.
		if err := os.Remove(w.segPath(seq)); err != nil {
			return fmt.Errorf("storage: remove orphan segment %d: %w", seq, err)
		}
		dirty = true
	}
	sort.Slice(adopted, func(i, j int) bool { return adopted[i] < adopted[j] })

	// Replay in order: sealed strictly, then adopted with repair.
	for _, s := range w.sealed {
		if _, _, err := w.replaySegment(s.Seq, true); err != nil {
			return err
		}
	}
	for i, seq := range adopted {
		validLen, segMax, err := w.replaySegment(seq, false)
		if err != nil {
			return err
		}
		last := i == len(adopted)-1
		if !last {
			// Sealed in spirit — the crash interrupted the manifest
			// update; finish it.
			meta := segMeta{Seq: seq, Last: segMax}
			if len(w.replayGLast) > 0 {
				meta.GLast = w.replayGLast
			}
			w.sealed = append(w.sealed, meta)
			dirty = true
			continue
		}
		f, err := os.OpenFile(w.segPath(seq), os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("storage: open active segment: %w", err)
		}
		if validLen == 0 {
			// Torn before the bootstrap records landed: rebuild them.
			if err := f.Truncate(0); err != nil {
				f.Close()
				return fmt.Errorf("storage: reset torn segment: %w", err)
			}
			n, err := w.writeBootstrap(f)
			if err != nil {
				f.Close()
				return err
			}
			validLen = n
		} else if _, err := f.Seek(validLen, io.SeekStart); err != nil {
			f.Close()
			return fmt.Errorf("storage: seek active segment: %w", err)
		}
		w.active, w.activeSeq, w.activeSize, w.activeLast = f, seq, validLen, segMax
		w.activeGLast = w.replayGLast
	}
	if w.active == nil {
		// Fresh directory, or the crash hit between sealing and creating
		// the next active segment.
		seq := maxSealed + 1
		if seq < w.floor {
			seq = w.floor
		}
		f, err := os.OpenFile(w.segPath(seq), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("storage: create segment: %w", err)
		}
		n, err := w.writeBootstrap(f)
		if err != nil {
			f.Close()
			return err
		}
		w.active, w.activeSeq, w.activeSize, w.activeLast = f, seq, n, 0
	}
	if dirty {
		if err := w.writeManifestLocked(); err != nil {
			return err
		}
	}
	return nil
}

// replaySegment applies one segment's records. Sealed segments are strict:
// any invalid frame is corruption. Unlisted (adopted/active) segments get
// torn-tail repair: the file is truncated at the first invalid frame.
// Returns the valid byte length and the highest entry index seen.
func (w *WAL) replaySegment(seq uint64, strict bool) (int64, types.Index, error) {
	path := w.segPath(seq)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("storage: read segment %d: %w", seq, err)
	}
	off := 0
	valid := 0
	var segMax types.Index
	first := true
	w.replayGLast = make(map[types.GroupID]types.Index)
	for {
		if len(data)-off < 8 {
			break // clean end or torn header
		}
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 || int(n) > len(data)-off-8 {
			break // torn record
		}
		body := data[off+8 : off+8+int(n)]
		if crc32.Checksum(body, crcTable) != sum {
			break // torn/corrupt record; stop replay here
		}
		if first {
			if len(body) != 2 || body[0] != recFormat {
				return 0, 0, fmt.Errorf("%w: segment %d has no format record", ErrCorrupt, seq)
			}
			if ver := body[1]; ver != walFormatVersion {
				return 0, 0, fmt.Errorf("%w: segment %d format version %d, this build reads %d",
					ErrCorrupt, seq, ver, walFormatVersion)
			}
			first = false
		}
		idx, err := w.apply(body)
		if err != nil {
			return 0, 0, err
		}
		if idx > segMax {
			segMax = idx
		}
		off += 8 + int(n)
		valid = off
	}
	if valid != len(data) {
		if strict {
			return 0, 0, fmt.Errorf("%w: invalid record inside sealed segment %d", ErrCorrupt, seq)
		}
		if err := os.Truncate(path, int64(valid)); err != nil {
			return 0, 0, fmt.Errorf("storage: truncate torn segment tail: %w", err)
		}
	}
	return int64(valid), segMax, nil
}

// apply dispatches one replayed record body. Returns the entry index for
// entry records (0 otherwise).
func (w *WAL) apply(body []byte) (types.Index, error) {
	if len(body) == 0 {
		return 0, ErrCorrupt
	}
	switch body[0] {
	case recFormat:
		if len(body) != 2 {
			return 0, fmt.Errorf("%w: malformed format record", ErrCorrupt)
		}
		return 0, nil
	case recHardState:
		r := body[1:]
		term, n := binary.Uvarint(r)
		if n <= 0 {
			return 0, ErrCorrupt
		}
		w.hs = HardState{Term: types.Term(term), VotedFor: types.NodeID(r[n:])}
		return 0, nil
	case recEntry:
		e, err := types.DecodeEntry(body[1:])
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		w.entries[e.Index] = e
		return e.Index, nil
	case recTruncate:
		idx, n := binary.Uvarint(body[1:])
		if n <= 0 {
			return 0, ErrCorrupt
		}
		for i := range w.entries {
			if i > types.Index(idx) {
				delete(w.entries, i)
			}
		}
		return 0, nil
	case recSnapshot:
		snap, err := types.DecodeSnapshot(body[1:])
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if snap.Meta.LastIndex >= w.snapMeta.LastIndex {
			w.snapMeta = snap.Meta
		}
		return 0, nil
	case recGroupHardState, recGroupEntry, recGroupTruncate, recGroupSnapshot:
		return 0, w.applyGroup(body)
	default:
		return 0, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, body[0])
	}
}

// applyGroup dispatches one replayed group-prefixed record body. Group
// entries never count toward the flat namespace's segment maxima; they
// feed replayGLast instead.
func (w *WAL) applyGroup(body []byte) error {
	kind := body[0]
	r := body[1:]
	glen, n := binary.Uvarint(r)
	if n <= 0 || glen > uint64(len(r)-n) {
		return ErrCorrupt
	}
	gid := types.GroupID(r[n : n+int(glen)])
	if gid == "" {
		return fmt.Errorf("%w: group record with empty group", ErrCorrupt)
	}
	rest := r[n+int(glen):]
	g := w.ensureGroupLocked(gid)
	switch kind {
	case recGroupHardState:
		term, n := binary.Uvarint(rest)
		if n <= 0 {
			return ErrCorrupt
		}
		g.hs = HardState{Term: types.Term(term), VotedFor: types.NodeID(rest[n:])}
	case recGroupEntry:
		e, err := types.DecodeEntry(rest)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		g.entries[e.Index] = e
		if e.Index > w.replayGLast[gid] {
			w.replayGLast[gid] = e.Index
		}
	case recGroupTruncate:
		idx, n := binary.Uvarint(rest)
		if n <= 0 {
			return ErrCorrupt
		}
		for i := range g.entries {
			if i > types.Index(idx) {
				delete(g.entries, i)
			}
		}
		if w.replayGLast[gid] > types.Index(idx) {
			w.replayGLast[gid] = types.Index(idx)
		}
	case recGroupSnapshot:
		snap, err := types.DecodeSnapshot(rest)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if snap.Meta.LastIndex >= g.snapMeta.LastIndex {
			g.snapMeta = snap.Meta
		}
	}
	return nil
}

// ensureGroupLocked returns the group's state, creating it on first sight
// (replay or first Group call).
func (w *WAL) ensureGroupLocked(gid types.GroupID) *WALGroup {
	g, ok := w.groups[gid]
	if !ok {
		g = &WALGroup{w: w, id: gid, entries: make(map[types.Index]types.Entry)}
		w.groups[gid] = g
	}
	return g
}

// writeBootstrap stamps a fresh segment with the format record, the current
// hard state and the current snapshot marker — for the flat namespace and
// for every known group — fsyncs it and fsyncs the directory, so any
// suffix of segments is self-contained for every group. Returns the bytes
// written.
func (w *WAL) writeBootstrap(f *os.File) (int64, error) {
	var buf []byte
	buf = appendFrame(buf, []byte{recFormat, walFormatVersion})
	buf = appendFrame(buf, hardStateBody(w.hs))
	if w.snapMeta.LastIndex != 0 {
		marker := types.Snapshot{Meta: w.snapMeta}
		buf = appendFrame(buf, append([]byte{recSnapshot}, types.EncodeSnapshot(marker)...))
	}
	// Deterministic group order keeps bootstrap bytes reproducible.
	gids := make([]types.GroupID, 0, len(w.groups))
	for gid := range w.groups {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for _, gid := range gids {
		g := w.groups[gid]
		buf = appendFrame(buf, groupBody(recGroupHardState, gid, hardStateBody(g.hs)[1:]))
		if g.snapMeta.LastIndex != 0 {
			marker := types.Snapshot{Meta: g.snapMeta}
			buf = appendFrame(buf, groupBody(recGroupSnapshot, gid, types.EncodeSnapshot(marker)))
		}
	}
	if _, err := f.Write(buf); err != nil {
		return 0, fmt.Errorf("storage: bootstrap segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("storage: sync segment: %w", err)
	}
	if err := syncDir(f.Name()); err != nil {
		return 0, fmt.Errorf("storage: sync wal dir: %w", err)
	}
	return int64(len(buf)), nil
}

// writeManifestLocked atomically replaces the manifest with the current
// sealed-segment list and floor.
func (w *WAL) writeManifestLocked() error {
	man := manifest{Version: walFormatVersion, Floor: w.floor, Segments: w.sealed}
	if man.Segments == nil {
		man.Segments = []segMeta{}
	}
	data, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("storage: encode manifest: %w", err)
	}
	path := manifestPath(w.dir)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create manifest tmp: %w", err)
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: write manifest: %w", werr)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: install manifest: %w", err)
	}
	if err := syncDir(path); err != nil {
		return fmt.Errorf("storage: sync wal dir: %w", err)
	}
	return nil
}

// loadSidecar resolves the recovery-base snapshot after replay, for the
// flat namespace and for every group. The sidecar wins over the marker (it
// may be one save ahead); a marker without a loadable sidecar means the
// compacted prefix is unrecoverable.
func (w *WAL) loadSidecar() error {
	snap, ok, err := readSnapshotFile(snapPath(w.dir))
	if err != nil {
		return err
	}
	if !ok {
		if w.snapMeta.LastIndex != 0 {
			return fmt.Errorf("%w: snapshot marker at %d but no sidecar",
				ErrCorrupt, w.snapMeta.LastIndex)
		}
	} else {
		if snap.Meta.LastIndex < w.snapMeta.LastIndex {
			return fmt.Errorf("%w: sidecar snapshot %d older than marker %d",
				ErrCorrupt, snap.Meta.LastIndex, w.snapMeta.LastIndex)
		}
		w.snap = snap
		// The snapshot re-seeds the compaction boundary lost at restart.
		w.prefixFloor = snap.Meta.LastIndex
		// Entries covered by the snapshot may survive in the log when the
		// process died between the snapshot save and the compaction; they
		// are stale, not corrupt.
		for i := range w.entries {
			if i <= snap.Meta.LastIndex {
				delete(w.entries, i)
			}
		}
	}
	// A group whose every record was compacted away can still be named by a
	// sidecar (the marker flush may have been lost to a crash the sidecar
	// write survived); adopt such groups so their snapshots are not
	// orphaned.
	sidecars, err := filepath.Glob(filepath.Join(w.dir, "snap-*"))
	if err != nil {
		return fmt.Errorf("storage: list group sidecars: %w", err)
	}
	for _, path := range sidecars {
		name := filepath.Base(path)
		raw, err := hex.DecodeString(name[len("snap-"):])
		if err != nil || len(raw) == 0 {
			continue // not a group sidecar (e.g. a stray temp)
		}
		w.ensureGroupLocked(types.GroupID(raw))
	}
	for gid, g := range w.groups {
		snap, ok, err := readSnapshotFile(groupSnapPath(w.dir, gid))
		if err != nil {
			return fmt.Errorf("group %q: %w", gid, err)
		}
		if !ok {
			if g.snapMeta.LastIndex != 0 {
				return fmt.Errorf("%w: group %q snapshot marker at %d but no sidecar",
					ErrCorrupt, gid, g.snapMeta.LastIndex)
			}
			continue
		}
		if snap.Meta.LastIndex < g.snapMeta.LastIndex {
			return fmt.Errorf("%w: group %q sidecar snapshot %d older than marker %d",
				ErrCorrupt, gid, snap.Meta.LastIndex, g.snapMeta.LastIndex)
		}
		g.snap = snap
		g.snapMeta = snap.Meta
		g.floorIdx = snap.Meta.LastIndex
		for i := range g.entries {
			if i <= snap.Meta.LastIndex {
				delete(g.entries, i)
			}
		}
	}
	return nil
}

// groupSnapPath names a group's snapshot sidecar. The group ID is
// hex-encoded so arbitrary IDs map to safe, collision-free file names.
func groupSnapPath(dir string, gid types.GroupID) string {
	return filepath.Join(dir, "snap-"+hex.EncodeToString([]byte(gid)))
}

// readSnapshotFile reads a framed snapshot file; ok=false when absent. A
// file that exists but fails validation is corrupt (sidecar writes are
// atomic; no torn-tail repair applies).
func readSnapshotFile(path string) (types.Snapshot, bool, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return types.Snapshot{}, false, nil
	}
	if err != nil {
		return types.Snapshot{}, false, fmt.Errorf("storage: read snapshot: %w", err)
	}
	if len(data) < 8 {
		return types.Snapshot{}, false, fmt.Errorf("%w: short snapshot file", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(data)
	sum := binary.LittleEndian.Uint32(data[4:])
	if int(n) != len(data)-8 || crc32.Checksum(data[8:], crcTable) != sum {
		return types.Snapshot{}, false, fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	snap, err := types.DecodeSnapshot(data[8:])
	if err != nil {
		return types.Snapshot{}, false, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return snap, true, nil
}

// writeSnapshotFile atomically installs a framed snapshot at path.
func writeSnapshotFile(path string, snap types.Snapshot) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create snapshot tmp: %w", err)
	}
	enc := types.EncodeSnapshot(snap)
	werr := writeRecord(f, enc)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: write snapshot: %w", werr)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: install snapshot: %w", err)
	}
	if err := syncDir(path); err != nil {
		return fmt.Errorf("storage: sync snapshot dir: %w", err)
	}
	return nil
}

// appendFrame frames one record body onto buf.
func appendFrame(buf, body []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(body, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, body...)
}

// writeRecord frames and writes one record without syncing.
func writeRecord(f *os.File, body []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(body, crcTable))
	if _, err := f.Write(hdr[:]); err != nil {
		return err
	}
	_, err := f.Write(body)
	return err
}

// syncDir fsyncs the directory containing path so renames are durable.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendBodyLocked accepts one record body: buffered under group commit,
// written + fsynced inline otherwise.
func (w *WAL) appendBodyLocked(body []byte) error {
	if w.syncErr != nil {
		return w.syncErr
	}
	if w.closed {
		return errors.New("storage: wal closed")
	}
	if w.opt.GroupCommit {
		if len(w.pend) == 0 {
			w.pendFirst = time.Now()
		}
		w.pend = appendFrame(w.pend, body)
		w.pendRecs++
		w.lastLSN++
		// The flusher owns the latency window: wake it on every append so
		// the timer counts from the first buffered record, and it decides
		// whether to wait out the window or flush (size threshold reached,
		// eager mode, forced sync).
		w.kickLocked()
		return nil
	}
	if err := writeRecord(w.active, body); err != nil {
		return fmt.Errorf("storage: append wal: %w", err)
	}
	if err := w.active.Sync(); err != nil {
		return fmt.Errorf("storage: sync wal: %w", err)
	}
	w.activeSize += int64(len(body)) + 8
	w.lastLSN++
	w.durLSN = w.lastLSN
	return w.maybeRollLocked()
}

func (w *WAL) kickLocked() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// maybeRollLocked seals the active segment once it exceeds SegmentBytes:
// fsync it, create + bootstrap the next active segment, then list the
// sealed one in the manifest. Crash-ordering: the new segment exists before
// the manifest names its predecessor sealed, so recovery always finds an
// adoptable active segment.
func (w *WAL) maybeRollLocked() error {
	if w.activeSize < int64(w.opt.SegmentBytes) {
		return nil
	}
	if err := w.active.Sync(); err != nil {
		return fmt.Errorf("storage: sync segment: %w", err)
	}
	seq := w.activeSeq + 1
	f, err := os.OpenFile(w.segPath(seq), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create segment: %w", err)
	}
	n, err := w.writeBootstrap(f)
	if err != nil {
		f.Close()
		return err
	}
	meta := segMeta{Seq: w.activeSeq, Last: w.activeLast}
	if len(w.activeGLast) > 0 {
		meta.GLast = w.activeGLast
	}
	w.sealed = append(w.sealed, meta)
	old := w.active
	w.active, w.activeSeq, w.activeSize, w.activeLast = f, seq, n, 0
	w.activeGLast = make(map[types.GroupID]types.Index)
	old.Close()
	return w.writeManifestLocked()
}

// flusher is the group-commit goroutine: it drains the pending buffer into
// the active segment with one write + one fsync per batch, honoring the
// latency/size window, then advances the durability horizon and notifies.
func (w *WAL) flusher() {
	defer close(w.flushDone)
	for {
		<-w.kick
		for {
			w.mu.Lock()
			if len(w.pend) == 0 {
				closed := w.closed
				w.mu.Unlock()
				if closed {
					return
				}
				break
			}
			if !w.force && !w.closed && w.opt.SyncWindow > 0 && len(w.pend) < w.opt.SyncBytes {
				age := time.Since(w.pendFirst)
				if age < w.opt.SyncWindow {
					w.mu.Unlock()
					t := time.NewTimer(w.opt.SyncWindow - age)
					select {
					case <-w.kick:
						t.Stop()
					case <-t.C:
					}
					continue
				}
			}
			batch := w.pend
			recs := w.pendRecs
			lsn := w.lastLSN
			w.pend = nil
			w.pendRecs = 0
			w.force = false
			f := w.active
			w.mu.Unlock()

			start := time.Now()
			_, err := f.Write(batch)
			if err == nil {
				err = f.Sync()
			}
			took := time.Since(start)

			w.mu.Lock()
			if err != nil {
				if w.syncErr == nil {
					w.syncErr = fmt.Errorf("storage: group flush: %w", err)
				}
			} else {
				w.durLSN = lsn
				w.activeSize += int64(len(batch))
				if rerr := w.maybeRollLocked(); rerr != nil && w.syncErr == nil {
					w.syncErr = rerr
				}
			}
			cb := w.onDurable
			var gcbs []func(uint64)
			for _, fn := range w.groupDurable {
				gcbs = append(gcbs, fn)
			}
			obs := w.opt.FsyncObserver
			w.cond.Broadcast()
			w.mu.Unlock()
			if err == nil {
				if obs != nil {
					obs(recs, len(batch), took)
				}
				if cb != nil {
					cb(lsn)
				}
				// Every group shares the LSN space, so one batch advances
				// every group's durability horizon at once.
				for _, fn := range gcbs {
					fn(lsn)
				}
			}
		}
	}
}

// --- Storage implementation ------------------------------------------------

// SetHardState implements Storage.
func (w *WAL) SetHardState(hs HardState) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendBodyLocked(hardStateBody(hs)); err != nil {
		return err
	}
	w.hs = hs
	return nil
}

func hardStateBody(hs HardState) []byte {
	body := make([]byte, 0, 16+len(hs.VotedFor))
	body = append(body, recHardState)
	body = binary.AppendUvarint(body, uint64(hs.Term))
	body = append(body, hs.VotedFor...)
	return body
}

// groupBody assembles a group-prefixed record: kind, group length + bytes,
// then the kind-specific payload.
func groupBody(kind byte, gid types.GroupID, rest []byte) []byte {
	body := make([]byte, 0, 2+len(gid)+len(rest))
	body = append(body, kind)
	body = binary.AppendUvarint(body, uint64(len(gid)))
	body = append(body, gid...)
	return append(body, rest...)
}

// AppendEntry implements Storage. The record is encoded into a reused
// scratch buffer, so steady-state appends do not allocate.
func (w *WAL) AppendEntry(e types.Entry) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.recBuf = append(w.recBuf[:0], recEntry)
	w.recBuf = types.AppendEntryTo(w.recBuf, e)
	// Count the entry toward the active segment before the append: the
	// append itself may roll the segment, and the sealed metadata must
	// cover every entry the sealed file carries. (Overstating Last — when
	// a grouped flush rolls before this entry's batch lands — only makes
	// compaction keep the segment longer, which is safe.)
	if e.Index > w.activeLast {
		w.activeLast = e.Index
	}
	if err := w.appendBodyLocked(w.recBuf); err != nil {
		return err
	}
	w.entries[e.Index] = e
	return nil
}

// TruncateSuffix implements Storage. Sealed-segment metadata is re-clamped
// so compaction can still drop a segment whose surviving entries all sit
// below the snapshot.
func (w *WAL) TruncateSuffix(idx types.Index) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.recBuf = append(w.recBuf[:0], recTruncate)
	w.recBuf = binary.AppendUvarint(w.recBuf, uint64(idx))
	if err := w.appendBodyLocked(w.recBuf); err != nil {
		return err
	}
	for i := range w.entries {
		if i > idx {
			delete(w.entries, i)
		}
	}
	if w.activeLast > idx {
		w.activeLast = idx
	}
	clamped := false
	for i := range w.sealed {
		if w.sealed[i].Last > idx {
			w.sealed[i].Last = idx
			clamped = true
		}
	}
	if clamped {
		return w.writeManifestLocked()
	}
	return nil
}

// SaveSnapshot implements Storage: the snapshot is written atomically to
// the sidecar file, then marked in the log so recovery knows a snapshot is
// the recovery base.
func (w *WAL) SaveSnapshot(snap types.Snapshot) error {
	if snap.IsZero() {
		return fmt.Errorf("storage: save empty snapshot")
	}
	if err := writeSnapshotFile(snapPath(w.dir), snap); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	// Marker: meta only (no state bytes) — the sidecar holds the data.
	marker := types.Snapshot{Meta: snap.Meta}
	body := append([]byte{recSnapshot}, types.EncodeSnapshot(marker)...)
	if err := w.appendBodyLocked(body); err != nil {
		return err
	}
	w.snap = snap
	w.snapMeta = snap.Meta
	return nil
}

// TruncatePrefix implements Storage: sealed segments whose entries all sit
// at or below idx are dropped from the manifest and unlinked. Retained
// segments are never rewritten or touched — compaction is O(dropped
// segments) regardless of how much log is retained.
func (w *WAL) TruncatePrefix(idx types.Index) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.entries {
		if i <= idx {
			delete(w.entries, i)
		}
	}
	if idx > w.prefixFloor {
		w.prefixFloor = idx
	}
	return w.dropCoveredLocked()
}

// segCoveredLocked reports whether every namespace's compaction boundary
// covers the sealed segment: the flat prefix floor over its Last, and each
// group's floor over its slice of that group's log. Records that carry no
// entries (hard state, markers) never hold a segment — later bootstraps
// re-stamp them.
func (w *WAL) segCoveredLocked(s segMeta) bool {
	if s.Last > w.prefixFloor {
		return false
	}
	for gid, last := range s.GLast {
		g, ok := w.groups[gid]
		if !ok || last > g.floorIdx {
			return false
		}
	}
	return true
}

// dropCoveredLocked unlinks sealed segments wholly covered by every
// namespace's compaction boundary. Manifest first: recovery treats on-disk
// segments below the floor as orphans, so a crash between the manifest write
// and the unlinks only leaves garbage that the next open collects.
func (w *WAL) dropCoveredLocked() error {
	keep := w.sealed[:0]
	var drop []uint64
	for _, s := range w.sealed {
		if w.segCoveredLocked(s) {
			drop = append(drop, s.Seq)
		} else {
			keep = append(keep, s)
		}
	}
	if len(drop) == 0 {
		return nil
	}
	w.sealed = append([]segMeta(nil), keep...)
	w.floor = w.activeSeq
	if len(w.sealed) > 0 && w.sealed[0].Seq < w.floor {
		w.floor = w.sealed[0].Seq
	}
	if err := w.writeManifestLocked(); err != nil {
		return err
	}
	for _, seq := range drop {
		if err := os.Remove(w.segPath(seq)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("storage: remove compacted segment %d: %w", seq, err)
		}
	}
	if err := syncDir(manifestPath(w.dir)); err != nil {
		return fmt.Errorf("storage: sync wal dir: %w", err)
	}
	return nil
}

// Load implements Storage.
func (w *WAL) Load() (HardState, []types.Entry, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]types.Entry, 0, len(w.entries))
	for _, e := range w.entries {
		if e.Index <= w.snap.Meta.LastIndex {
			continue
		}
		out = append(out, e)
	}
	sortEntries(out)
	return w.hs, out, nil
}

// LoadSnapshot implements Storage.
func (w *WAL) LoadSnapshot() (types.Snapshot, bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.snap.IsZero() {
		return types.Snapshot{}, false, nil
	}
	return w.snap, true, nil
}

// Close implements Storage: pending group-commit batches are flushed and
// fsynced before the segment closes.
func (w *WAL) Close() error {
	if w.opt.GroupCommit {
		w.mu.Lock()
		w.closed = true
		w.force = true
		w.kickLocked()
		w.mu.Unlock()
		<-w.flushDone
		w.mu.Lock()
		err := w.syncErr
		w.mu.Unlock()
		if cerr := w.active.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("storage: close wal: %w", cerr)
		}
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	if err := w.active.Sync(); err != nil {
		w.active.Close()
		return fmt.Errorf("storage: close wal: %w", err)
	}
	return w.active.Close()
}

func (w *WAL) closeFiles() {
	if w.active != nil {
		w.active.Close()
	}
}

// --- Grouped implementation ------------------------------------------------

// GroupCommit implements Grouped.
func (w *WAL) GroupCommit() bool { return w.opt.GroupCommit }

// LastLSN implements Grouped.
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastLSN
}

// DurableLSN implements Grouped.
func (w *WAL) DurableLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durLSN
}

// OnDurable implements Grouped.
func (w *WAL) OnDurable(fn func(lsn uint64)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.onDurable = fn
}

// SetFsyncObserver installs (or replaces) the fsync-batch observer after
// open. The consensus node uses it to feed the flight recorder's
// hist.fsync_batch_size histogram when tracing is enabled.
func (w *WAL) SetFsyncObserver(fn func(records, bytes int, took time.Duration)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.opt.FsyncObserver = fn
}

// Sync implements Grouped: forces everything pending onto disk and blocks
// until durable (or the first write error, which is sticky).
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.opt.GroupCommit {
		return w.syncErr
	}
	target := w.lastLSN
	for w.durLSN < target && w.syncErr == nil {
		w.force = true
		w.kickLocked()
		w.cond.Wait()
	}
	return w.syncErr
}

// SegmentCount reports sealed and active segment counts (diagnostics and
// tests).
func (w *WAL) SegmentCount() (sealed int, active uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sealed), w.activeSeq
}

var _ Grouped = (*WAL)(nil)
