package storage

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"testing/quick"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

func pid(p string, s uint64) types.ProposalID {
	return types.ProposalID{Proposer: types.NodeID(p), Seq: s}
}

func entry(idx types.Index, term types.Term, payload string) types.Entry {
	return types.Entry{
		Index: idx, Term: term, Kind: types.KindNormal,
		Approval: types.ApprovedLeader, PID: pid("p", uint64(idx)),
		Data: []byte(payload),
	}
}

// activeSegment returns the path of the WAL's active (highest-sequence)
// segment file; zero-padded names make lexical order numeric order.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	sort.Strings(names)
	return names[len(names)-1]
}

// storageScenario exercises any Storage implementation identically.
func storageScenario(t *testing.T, s Storage) {
	t.Helper()
	if err := s.SetHardState(HardState{Term: 3, VotedFor: "n2"}); err != nil {
		t.Fatal(err)
	}
	for i := types.Index(1); i <= 5; i++ {
		if err := s.AppendEntry(entry(i, 1, "v1")); err != nil {
			t.Fatal(err)
		}
	}
	// Replace index 3 (overwrite) and truncate past 4.
	if err := s.AppendEntry(entry(3, 2, "v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.TruncateSuffix(4); err != nil {
		t.Fatal(err)
	}
	hs, entries, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if hs.Term != 3 || hs.VotedFor != "n2" {
		t.Fatalf("hard state = %+v", hs)
	}
	if len(entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(entries))
	}
	for i, e := range entries {
		if e.Index != types.Index(i+1) {
			t.Fatalf("entries unsorted: %v", entries)
		}
	}
	if string(entries[2].Data) != "v2" || entries[2].Term != 2 {
		t.Fatalf("replacement lost: %v", entries[2])
	}
}

func TestMemoryStorageScenario(t *testing.T) {
	storageScenario(t, NewMemory())
}

func TestWALScenarioAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	storageScenario(t, w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: state must be replayed identically.
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	hs, entries, err := w2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if hs.Term != 3 || hs.VotedFor != "n2" || len(entries) != 4 {
		t.Fatalf("reopen: hs=%+v entries=%d", hs, len(entries))
	}
}

func TestWALTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetHardState(HardState{Term: 1, VotedFor: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendEntry(entry(1, 1, "keep")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: append garbage that looks like a partial
	// record to the active segment.
	f, err := os.OpenFile(activeSegment(t, path), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{200, 0, 0, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("torn tail must recover, got %v", err)
	}
	hs, entries, err := w2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if hs.Term != 1 || len(entries) != 1 || string(entries[0].Data) != "keep" {
		t.Fatalf("recovered state wrong: hs=%+v entries=%v", hs, entries)
	}
	// The torn tail must have been dropped so new appends work.
	if err := w2.AppendEntry(entry(2, 1, "after")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	_, entries, _ = w3.Load()
	if len(entries) != 2 {
		t.Fatalf("post-recovery append lost: %v", entries)
	}
}

// writeSegment lays down dir/00000001.seg holding the given record bodies,
// framed as the WAL frames them, with no manifest.
func writeSegment(t *testing.T, dir string, bodies ...[]byte) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, b := range bodies {
		buf = appendFrame(buf, b)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(1)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWALRejectsPreVersioningFormat: a segment whose first record is not the
// format record must be refused with a clear error, not misdecoded.
func TestWALRejectsPreVersioningFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.wal")
	writeSegment(t, path, hardStateBody(HardState{Term: 3, VotedFor: "a"}))
	if _, err := OpenWAL(path); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("pre-versioning WAL opened: err=%v", err)
	}
}

// TestWALRejectsFutureFormatVersion: a format record with a newer version
// must be refused.
func TestWALRejectsFutureFormatVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "future.wal")
	writeSegment(t, path, []byte{recFormat, walFormatVersion + 1})
	if _, err := OpenWAL(path); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("future-format WAL opened: err=%v", err)
	}
}

// TestWALRejectsFormat4Segment: a segment recorded in the previous format is
// refused, and the error names the version found.
func TestWALRejectsFormat4Segment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v4.wal")
	writeSegment(t, path, []byte{recFormat, 4}, hardStateBody(HardState{Term: 3, VotedFor: "a"}))
	_, err := OpenWAL(path)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "format version 4") {
		t.Fatalf("format-4 segment: err=%v, want ErrCorrupt naming version 4", err)
	}
}

// TestWALRejectsFormat4Manifest: a manifest claiming the previous format is
// refused, and the error names the version found.
func TestWALRejectsFormat4Manifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v4.wal")
	w, err := OpenWALOptions(path, smallSegOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Enough bulk to seal a 256-byte segment, so a manifest exists.
	for i := types.Index(1); i <= 20; i++ {
		if err := w.AppendEntry(entry(i, 3, "0123456789abcdef0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	man, ok, err := readManifest(path)
	if err != nil || !ok {
		t.Fatalf("manifest: ok=%v err=%v", ok, err)
	}
	man.Version = 4
	data, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath(path), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenWAL(path)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "format version 4") {
		t.Fatalf("format-4 manifest: err=%v, want ErrCorrupt naming version 4", err)
	}
}

func TestWALCorruptMiddleStopsReplayAtCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendEntry(entry(1, 1, "one")); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendEntry(entry(2, 1, "two")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Flip a byte inside the second record's body (in the active segment).
	seg := activeSegment(t, path)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("corrupt tail record should truncate, got %v", err)
	}
	defer w2.Close()
	_, entries, _ := w2.Load()
	if len(entries) != 1 || string(entries[0].Data) != "one" {
		t.Fatalf("replay past corruption: %v", entries)
	}
}

func snap(idx types.Index, term types.Term, payload string) types.Snapshot {
	return types.Snapshot{
		Meta: types.SnapshotMeta{
			LastIndex: idx, LastTerm: term,
			Config: types.NewConfig("n1", "n2", "n3"),
		},
		Data: []byte(payload),
	}
}

// snapshotScenario exercises snapshot save + prefix compaction on any
// Storage implementation.
func snapshotScenario(t *testing.T, s Storage) {
	t.Helper()
	if err := s.SetHardState(HardState{Term: 2, VotedFor: "n1"}); err != nil {
		t.Fatal(err)
	}
	for i := types.Index(1); i <= 10; i++ {
		if err := s.AppendEntry(entry(i, 1, "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SaveSnapshot(snap(6, 1, "state@6")); err != nil {
		t.Fatal(err)
	}
	if err := s.TruncatePrefix(6); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEntry(entry(11, 2, "post")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.LoadSnapshot()
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot: ok=%v err=%v", ok, err)
	}
	if got.Meta.LastIndex != 6 || string(got.Data) != "state@6" {
		t.Fatalf("snapshot = %v data=%q", got, got.Data)
	}
	_, entries, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 || entries[0].Index != 7 || entries[4].Index != 11 {
		t.Fatalf("post-compaction entries = %v", entries)
	}
}

func TestMemorySnapshotScenario(t *testing.T) {
	snapshotScenario(t, NewMemory())
}

func TestWALSnapshotScenarioAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	snapshotScenario(t, w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A reopened WAL must load only the snapshot + suffix.
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, ok, err := w2.LoadSnapshot()
	if err != nil || !ok || got.Meta.LastIndex != 6 || string(got.Data) != "state@6" {
		t.Fatalf("reopen snapshot: ok=%v err=%v snap=%v", ok, err, got)
	}
	if got.Meta.Config.Size() != 3 {
		t.Fatalf("snapshot config lost: %v", got.Meta.Config)
	}
	hs, entries, err := w2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if hs.Term != 2 || len(entries) != 5 || entries[0].Index != 7 {
		t.Fatalf("reopen after compaction: hs=%+v entries=%v", hs, entries)
	}
}

func TestWALTornTailAcrossCompactionBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snaptorn.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	snapshotScenario(t, w) // snapshot@6, entries 7..11
	if err := w.AppendEntry(entry(12, 2, "last")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: a partial record after the compacted log's appends.
	f, err := os.OpenFile(activeSegment(t, path), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{90, 0, 0, 0, 7, 7}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("torn tail across compaction must recover, got %v", err)
	}
	defer w2.Close()
	got, ok, _ := w2.LoadSnapshot()
	if !ok || got.Meta.LastIndex != 6 {
		t.Fatalf("snapshot lost by torn-tail repair: ok=%v snap=%v", ok, got)
	}
	_, entries, _ := w2.Load()
	if len(entries) != 6 || entries[0].Index != 7 || entries[5].Index != 12 {
		t.Fatalf("suffix after torn-tail repair: %v", entries)
	}
}

func TestWALCrashBetweenSnapshotAndCompaction(t *testing.T) {
	// Snapshot saved but the process dies before TruncatePrefix: the
	// still-present prefix entries are stale, not corrupt, and must be
	// filtered on recovery.
	path := filepath.Join(t.TempDir(), "midsave.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := types.Index(1); i <= 8; i++ {
		if err := w.AppendEntry(entry(i, 1, "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.SaveSnapshot(snap(5, 1, "state@5")); err != nil {
		t.Fatal(err)
	}
	w.Close() // no TruncatePrefix
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	_, ok, _ := w2.LoadSnapshot()
	if !ok {
		t.Fatal("snapshot not recovered")
	}
	_, entries, _ := w2.Load()
	if len(entries) != 3 || entries[0].Index != 6 {
		t.Fatalf("stale prefix not filtered: %v", entries)
	}
}

func TestWALSnapshotMarkerWithoutSidecarIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lost.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendEntry(entry(1, 1, "v")); err != nil {
		t.Fatal(err)
	}
	if err := w.SaveSnapshot(snap(1, 1, "s")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := os.Remove(snapPath(path)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(path); err == nil {
		t.Fatal("marker without sidecar must fail to open")
	}
}

func TestWALInterruptedSaveLeavesLogIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rot.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	snapshotScenario(t, w)
	w.Close()
	// Simulate crashes mid-save: partial manifest and sidecar temp files.
	for _, tmp := range []string{manifestPath(path) + ".tmp", snapPath(path) + ".tmp"} {
		if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("stale save temps must be ignored, got %v", err)
	}
	defer w2.Close()
	_, entries, _ := w2.Load()
	if len(entries) != 5 {
		t.Fatalf("entries after ignored save temps: %v", entries)
	}
	for _, tmp := range []string{manifestPath(path) + ".tmp", snapPath(path) + ".tmp"} {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatalf("stale temp %s not removed", tmp)
		}
	}
}

// TestQuickWALMatchesMemory replays random operation sequences against both
// implementations and requires identical Load results after a reopen.
func TestQuickWALMatchesMemory(t *testing.T) {
	dir := t.TempDir()
	n := 0
	f := func(seed int64) bool {
		n++
		rng := rand.New(rand.NewSource(seed))
		path := filepath.Join(dir, "wal", "q", "w", "x", "y", "z", "t", "u", "v",
			"n"+string(rune('a'+n%26))+string(rune('a'+(n/26)%26))+".wal")
		w, err := OpenWAL(path)
		if err != nil {
			t.Logf("open: %v", err)
			return false
		}
		m := NewMemory()
		var snapIdx types.Index // snapshots only move forward
		for op := 0; op < 30; op++ {
			switch rng.Intn(4) {
			case 0:
				hs := HardState{Term: types.Term(rng.Intn(100)), VotedFor: types.NodeID(string(rune('a' + rng.Intn(5))))}
				if w.SetHardState(hs) != nil || m.SetHardState(hs) != nil {
					return false
				}
			case 1:
				e := entry(types.Index(rng.Intn(10)+1), types.Term(rng.Intn(5)+1), "x")
				if w.AppendEntry(e) != nil || m.AppendEntry(e) != nil {
					return false
				}
			case 2:
				idx := types.Index(rng.Intn(10))
				if w.TruncateSuffix(idx) != nil || m.TruncateSuffix(idx) != nil {
					return false
				}
			case 3:
				idx := snapIdx + types.Index(rng.Intn(3)+1)
				snapIdx = idx
				s := snap(idx, types.Term(rng.Intn(5)+1), "s")
				if w.SaveSnapshot(s) != nil || m.SaveSnapshot(s) != nil {
					return false
				}
				if w.TruncatePrefix(idx) != nil || m.TruncatePrefix(idx) != nil {
					return false
				}
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		w2, err := OpenWAL(path)
		if err != nil {
			return false
		}
		defer w2.Close()
		whs, wes, err1 := w2.Load()
		mhs, mes, err2 := m.Load()
		if err1 != nil || err2 != nil {
			return false
		}
		if whs != mhs {
			t.Logf("hardstate: wal=%+v mem=%+v", whs, mhs)
			return false
		}
		wsn, wok, err1 := w2.LoadSnapshot()
		msn, mok, err2 := m.LoadSnapshot()
		if err1 != nil || err2 != nil || wok != mok || !reflect.DeepEqual(wsn, msn) {
			t.Logf("snapshot: wal=%v,%v mem=%v,%v", wsn, wok, msn, mok)
			return false
		}
		if len(wes) == 0 && len(mes) == 0 {
			return true
		}
		return reflect.DeepEqual(wes, mes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// smallSegOpts makes segments roll quickly so tests exercise multi-segment
// layouts with few appends.
func smallSegOpts() WALOptions { return WALOptions{SegmentBytes: 256} }

// TestWALCompactionDoesNotRewriteRetainedSegments is the O(dropped) claim:
// dropping a prefix unlinks whole sealed segments and never touches (let
// alone rewrites) the retained ones — their inode and mtime are unchanged.
func TestWALCompactionDoesNotRewriteRetainedSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	w, err := OpenWALOptions(path, smallSegOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := types.Index(1); i <= 40; i++ {
		if err := w.AppendEntry(entry(i, 1, "payload-payload-payload")); err != nil {
			t.Fatal(err)
		}
	}
	sealed, _ := w.SegmentCount()
	if sealed < 3 {
		t.Fatalf("want >=3 sealed segments, got %d", sealed)
	}

	man, ok, err := readManifest(path)
	if err != nil || !ok {
		t.Fatalf("manifest: ok=%v err=%v", ok, err)
	}
	// Compact up to the first sealed segment's last index: exactly that
	// segment is droppable, everything after must be byte-identical.
	bound := man.Segments[0].Last
	type fileID struct {
		ino   uint64
		mtime time.Time
		size  int64
	}
	before := map[uint64]fileID{}
	for _, s := range man.Segments[1:] {
		fi, err := os.Stat(filepath.Join(path, segName(s.Seq)))
		if err != nil {
			t.Fatal(err)
		}
		st := fi.Sys().(*syscall.Stat_t)
		before[s.Seq] = fileID{ino: st.Ino, mtime: fi.ModTime(), size: fi.Size()}
	}

	if err := w.SaveSnapshot(snap(bound, 1, "s")); err != nil {
		t.Fatal(err)
	}
	if err := w.TruncatePrefix(bound); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(path, segName(man.Segments[0].Seq))); !os.IsNotExist(err) {
		t.Fatalf("dropped segment still on disk: %v", err)
	}
	for seq, id := range before {
		fi, err := os.Stat(filepath.Join(path, segName(seq)))
		if err != nil {
			t.Fatalf("retained segment %d gone: %v", seq, err)
		}
		st := fi.Sys().(*syscall.Stat_t)
		if st.Ino != id.ino || !fi.ModTime().Equal(id.mtime) || fi.Size() != id.size {
			t.Fatalf("retained segment %d was rewritten: ino %d->%d mtime %v->%v size %d->%d",
				seq, id.ino, st.Ino, id.mtime, fi.ModTime(), id.size, fi.Size())
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWALOptions(path, smallSegOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	_, entries, err := w2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != int(40-bound) || entries[0].Index != bound+1 {
		t.Fatalf("post-compaction reopen: %d entries, first %v", len(entries), entries[0].Index)
	}
}

// TestWALCrashBetweenSealAndManifest: the sealed segment exists on disk but
// the manifest update never landed. Recovery must adopt it (and the newer
// active segment) and lose nothing.
func TestWALCrashBetweenSealAndManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seal.wal")
	w, err := OpenWALOptions(path, smallSegOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := types.Index(1); i <= 30; i++ {
		if err := w.AppendEntry(entry(i, 1, "payload-payload-payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	man, ok, err := readManifest(path)
	if err != nil || !ok || len(man.Segments) < 2 {
		t.Fatalf("need >=2 sealed segments: ok=%v err=%v segs=%d", ok, err, len(man.Segments))
	}
	// Rewind the manifest one seal, as if the crash hit after the new
	// active segment was created but before the manifest rewrite.
	man.Segments = man.Segments[:len(man.Segments)-1]
	data, _ := json.Marshal(man)
	if err := os.WriteFile(manifestPath(path), data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWALOptions(path, smallSegOpts())
	if err != nil {
		t.Fatalf("recovery from pre-manifest crash: %v", err)
	}
	defer w2.Close()
	_, entries, err := w2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 30 {
		t.Fatalf("entries lost across seal crash: %d", len(entries))
	}
	// The adopted segment must have been re-listed.
	man2, _, err := readManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(man2.Segments) < len(man.Segments)+1 {
		t.Fatalf("adopted segment not resealed: %d -> %d", len(man.Segments), len(man2.Segments))
	}
}

// TestWALCompactionCrashBeforeUnlink: the manifest already dropped the
// segments but the files survive (compaction racing a crash, e.g. during
// snapshot install). Recovery garbage-collects the orphans below the floor.
func TestWALCompactionCrashBeforeUnlink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "orph.wal")
	w, err := OpenWALOptions(path, smallSegOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := types.Index(1); i <= 30; i++ {
		if err := w.AppendEntry(entry(i, 1, "payload-payload-payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	man, ok, err := readManifest(path)
	if err != nil || !ok || len(man.Segments) < 2 {
		t.Fatalf("need >=2 sealed segments: ok=%v err=%v segs=%d", ok, err, len(man.Segments))
	}
	// Snapshot covering the first segment, then hand-write the
	// post-compaction manifest while leaving the file on disk.
	bound := man.Segments[0].Last
	if err := writeSnapshotFile(snapPath(path), snap(bound, 1, "s")); err != nil {
		t.Fatal(err)
	}
	orphan := man.Segments[0].Seq
	man.Segments = man.Segments[1:]
	man.Floor = man.Segments[0].Seq
	data, _ := json.Marshal(man)
	if err := os.WriteFile(manifestPath(path), data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWALOptions(path, smallSegOpts())
	if err != nil {
		t.Fatalf("recovery with orphan segment: %v", err)
	}
	defer w2.Close()
	if _, err := os.Stat(filepath.Join(path, segName(orphan))); !os.IsNotExist(err) {
		t.Fatal("orphan segment below floor not collected")
	}
	_, entries, err := w2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != int(30-bound) || entries[0].Index != bound+1 {
		t.Fatalf("recovered entries: %d, first %v", len(entries), entries[0].Index)
	}
}

// TestWALGroupCommitHorizon: acknowledged-but-unsynced mutations sit above
// the durable horizon until Sync; the OnDurable callback reports progress.
func TestWALGroupCommitHorizon(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gc.wal")
	w, err := OpenWALOptions(path, WALOptions{GroupCommit: true, SyncWindow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// OnDurable runs on the flusher goroutine, which releases Sync's waiter
	// before it calls back: the test waits for the callback itself.
	var notified atomic.Uint64
	called := make(chan struct{}, 1)
	w.OnDurable(func(lsn uint64) {
		notified.Store(lsn)
		select {
		case called <- struct{}{}:
		default:
		}
	})
	if err := w.SetHardState(HardState{Term: 1, VotedFor: "a"}); err != nil {
		t.Fatal(err)
	}
	for i := types.Index(1); i <= 3; i++ {
		if err := w.AppendEntry(entry(i, 1, "v")); err != nil {
			t.Fatal(err)
		}
	}
	if w.LastLSN() != 4 {
		t.Fatalf("LastLSN = %d, want 4", w.LastLSN())
	}
	if d := w.DurableLSN(); d == w.LastLSN() {
		t.Fatalf("durable horizon %d caught up without a sync (window is 1h)", d)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-called:
	case <-time.After(5 * time.Second):
		t.Fatal("OnDurable not called after Sync")
	}
	if w.DurableLSN() != 4 || notified.Load() != 4 {
		t.Fatalf("after Sync: durable=%d notified=%d", w.DurableLSN(), notified.Load())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	hs, entries, err := w2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if hs.Term != 1 || len(entries) != 3 {
		t.Fatalf("grouped state lost: hs=%+v entries=%d", hs, len(entries))
	}
}

// TestWALGroupCommitScenarios: the full Storage contract holds under group
// commit (eager flushing), including reopen by a synchronous WAL.
func TestWALGroupCommitScenarios(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gcs.wal")
	w, err := OpenWALOptions(path, WALOptions{GroupCommit: true, SyncWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	storageScenario(t, w)
	snapshotScenario(t, w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, ok, err := w2.LoadSnapshot()
	if err != nil || !ok || got.Meta.LastIndex != 6 {
		t.Fatalf("reopen snapshot: ok=%v err=%v snap=%v", ok, err, got)
	}
	_, entries, err := w2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 || entries[0].Index != 7 {
		t.Fatalf("reopen entries: %v", entries)
	}
}

// TestGroupedMemoryCrashDropsUnsynced: the harness storage model loses
// exactly the unsynced suffix on a crash.
func TestGroupedMemoryCrashDropsUnsynced(t *testing.T) {
	m := NewMemory()
	g := NewGroupedMemory(m)
	if err := g.AppendEntry(entry(1, 1, "durable")); err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := g.AppendEntry(entry(2, 1, "lost")); err != nil {
		t.Fatal(err)
	}
	if g.LastLSN() != 2 || g.DurableLSN() != 1 {
		t.Fatalf("lsns: last=%d durable=%d", g.LastLSN(), g.DurableLSN())
	}
	g.Crash()
	if g.LastLSN() != 1 {
		t.Fatalf("crash did not rewind accepted horizon: %d", g.LastLSN())
	}
	_, entries, err := g.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || string(entries[0].Data) != "durable" {
		t.Fatalf("post-crash state: %v", entries)
	}
}
