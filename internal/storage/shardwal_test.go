package storage

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

// TestShardWALGroupsAreIndependent runs the full Storage scenarios through
// two group views and the flat namespace of one directory, then reopens and
// checks each namespace replays its own state untouched by the others.
func TestShardWALGroupsAreIndependent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	storageScenario(t, w.Group("ga"))
	snapshotScenario(t, w.Group("gb"))
	// Flat namespace writes interleave with the group records.
	if err := w.SetHardState(HardState{Term: 9, VotedFor: "flat"}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendEntry(entry(1, 9, "flat-entry")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	hs, entries, err := w2.Group("ga").Load()
	if err != nil {
		t.Fatal(err)
	}
	if hs.Term != 3 || hs.VotedFor != "n2" || len(entries) != 4 {
		t.Fatalf("group ga after reopen: hs=%+v entries=%d", hs, len(entries))
	}
	gsnap, ok, err := w2.Group("gb").LoadSnapshot()
	if err != nil || !ok || gsnap.Meta.LastIndex != 6 || string(gsnap.Data) != "state@6" {
		t.Fatalf("group gb snapshot after reopen: ok=%v err=%v snap=%v", ok, err, gsnap)
	}
	hsB, entriesB, err := w2.Group("gb").Load()
	if err != nil {
		t.Fatal(err)
	}
	if hsB.Term != 2 || len(entriesB) != 5 || entriesB[0].Index != 7 {
		t.Fatalf("group gb after reopen: hs=%+v entries=%v", hsB, entriesB)
	}
	flatHS, flatEntries, err := w2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if flatHS.Term != 9 || flatHS.VotedFor != "flat" || len(flatEntries) != 1 {
		t.Fatalf("flat namespace after reopen: hs=%+v entries=%d", flatHS, len(flatEntries))
	}
	if _, ok, _ := w2.LoadSnapshot(); ok {
		t.Fatal("flat namespace inherited a group snapshot")
	}
}

// TestShardWALCrossGroupFsyncBatching is the point of the shared WAL: under
// group commit, appends from many groups ride the same pending buffer, so a
// whole multi-group burst costs a handful of fsyncs, not one per group.
func TestShardWALCrossGroupFsyncBatching(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.wal")
	// FsyncObserver runs on the flusher goroutine, which releases Sync's
	// waiter before it calls the observer: the test waits for the call.
	var fsyncs atomic.Int64
	observed := make(chan struct{}, 1)
	w, err := OpenWALOptions(path, WALOptions{
		GroupCommit: true,
		SyncWindow:  time.Hour, // only explicit Sync flushes
		FsyncObserver: func(records, bytes int, took time.Duration) {
			fsyncs.Add(1)
			select {
			case observed <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const groups, perGroup = 8, 16
	for gi := 0; gi < groups; gi++ {
		g := w.Group(types.GroupID(fmt.Sprintf("g%d", gi)))
		for i := types.Index(1); i <= perGroup; i++ {
			if err := g.AppendEntry(entry(i, 1, "x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Group("g0").Sync(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-observed:
	case <-time.After(5 * time.Second):
		t.Fatal("FsyncObserver not called after Sync")
	}
	if n := fsyncs.Load(); n != 1 {
		t.Fatalf("%d groups x %d appends took %d fsyncs, want 1 shared batch",
			groups, perGroup, n)
	}
	for gi := 0; gi < groups; gi++ {
		g := w.Group(types.GroupID(fmt.Sprintf("g%d", gi)))
		if _, entries, _ := g.Load(); len(entries) != perGroup {
			t.Fatalf("group g%d lost entries: %d", gi, len(entries))
		}
	}
}

// TestShardWALGroupDurableCallbacksShareLSN checks every group's OnDurable
// callback fires with the shared horizon after one batch.
func TestShardWALGroupDurableCallbacksShareLSN(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cb.wal")
	w, err := OpenWALOptions(path, WALOptions{GroupCommit: true, SyncWindow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	got := make(map[types.GroupID]uint64)
	done := make(chan types.GroupID, 2)
	for _, gid := range []types.GroupID{"a", "b"} {
		gid := gid
		g := w.Group(gid)
		g.OnDurable(func(lsn uint64) {
			got[gid] = lsn
			done <- gid
		})
		if err := g.AppendEntry(entry(1, 1, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	<-done
	<-done
	if got["a"] != 2 || got["b"] != 2 {
		t.Fatalf("durable callbacks saw %v, want shared LSN 2 for both", got)
	}
}

// TestShardWALSegmentGCWaitsForEveryGroup interleaves two groups' entries in
// small shared segments: compacting one group must keep the segments alive
// for the straggler, and compacting the straggler reclaims them.
func TestShardWALSegmentGCWaitsForEveryGroup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gc2.wal")
	w, err := OpenWALOptions(path, smallSegOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ga, gb := w.Group("ga"), w.Group("gb")
	for i := types.Index(1); i <= 40; i++ {
		if err := ga.AppendEntry(entry(i, 1, "aaaaaaaaaaaaaaaa")); err != nil {
			t.Fatal(err)
		}
		if err := gb.AppendEntry(entry(i, 1, "bbbbbbbbbbbbbbbb")); err != nil {
			t.Fatal(err)
		}
	}
	sealedBefore, _ := w.SegmentCount()
	if sealedBefore == 0 {
		t.Fatal("test needs sealed segments; lower SegmentBytes")
	}
	if err := ga.SaveSnapshot(snap(40, 1, "a@40")); err != nil {
		t.Fatal(err)
	}
	if err := ga.TruncatePrefix(40); err != nil {
		t.Fatal(err)
	}
	sealedMid, _ := w.SegmentCount()
	if sealedMid != sealedBefore {
		t.Fatalf("segments dropped while group gb still needs them: %d -> %d",
			sealedBefore, sealedMid)
	}
	if err := gb.SaveSnapshot(snap(40, 1, "b@40")); err != nil {
		t.Fatal(err)
	}
	if err := gb.TruncatePrefix(40); err != nil {
		t.Fatal(err)
	}
	sealedAfter, _ := w.SegmentCount()
	if sealedAfter != 0 {
		t.Fatalf("all groups compacted but %d sealed segments remain", sealedAfter)
	}

	// Recovery from the compacted directory: both groups load snapshot-only.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	for _, gid := range []types.GroupID{"ga", "gb"} {
		s, ok, err := w2.Group(gid).LoadSnapshot()
		if err != nil || !ok || s.Meta.LastIndex != 40 {
			t.Fatalf("group %s snapshot after GC+reopen: ok=%v err=%v snap=%v", gid, ok, err, s)
		}
		if _, entries, _ := w2.Group(gid).Load(); len(entries) != 0 {
			t.Fatalf("group %s: %d entries survived full compaction", gid, len(entries))
		}
	}
}

// TestShardMemorySharedCrashWindow: one ShardMemory crash loses every
// group's unsynced suffix together, like one machine's page cache.
func TestShardMemorySharedCrashWindow(t *testing.T) {
	sm := NewShardMemory()
	ga, gb := sm.Group("a"), sm.Group("b")
	if err := ga.AppendEntry(entry(1, 1, "a1")); err != nil {
		t.Fatal(err)
	}
	if err := sm.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := ga.AppendEntry(entry(2, 1, "a2")); err != nil {
		t.Fatal(err)
	}
	if err := gb.AppendEntry(entry(1, 1, "b1")); err != nil {
		t.Fatal(err)
	}
	if ga.DurableLSN() != 1 || ga.LastLSN() != 3 {
		t.Fatalf("shared LSN space: dur=%d last=%d", ga.DurableLSN(), ga.LastLSN())
	}
	sm.Crash()
	if _, entries, _ := ga.Load(); len(entries) != 1 {
		t.Fatalf("group a after crash: %d entries, want 1 (synced only)", len(entries))
	}
	if _, entries, _ := gb.Load(); len(entries) != 0 {
		t.Fatalf("group b after crash: %d entries, want 0", len(entries))
	}
	if gb.LastLSN() != 1 {
		t.Fatalf("LSN regressed below durable or kept lost ops: %d", gb.LastLSN())
	}
}
