package durable

import (
	"testing"

	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/types"
)

// gstore returns a group-commit memory store with n accepted-but-unsynced
// mutations.
func gstore(t *testing.T, n int) *storage.GroupedMemory {
	t.Helper()
	g := storage.NewGroupedMemory(storage.NewMemory())
	for i := 0; i < n; i++ {
		if err := g.AppendEntry(types.Entry{Index: types.Index(i + 1), Term: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestNewGateNilForSynchronousStorage(t *testing.T) {
	if g := NewGate(storage.NewMemory()); g != nil {
		t.Fatalf("expected nil gate for plain memory storage, got %v", g)
	}
	var g *Gate
	if g.Tag() != 0 {
		t.Fatal("nil gate Tag should be 0")
	}
	if g.Durable() != ^uint64(0) {
		t.Fatal("nil gate Durable should be the max horizon")
	}
	if !g.Open(12345) {
		t.Fatal("nil gate should be open for every tag")
	}
}

func TestGateTracksStore(t *testing.T) {
	s := gstore(t, 3)
	g := NewGate(s)
	if g == nil {
		t.Fatal("expected a gate over group-commit storage")
	}
	if g.Tag() != 3 || g.Durable() != 0 {
		t.Fatalf("Tag=%d Durable=%d, want 3/0", g.Tag(), g.Durable())
	}
	if g.Open(1) {
		t.Fatal("tag 1 must not be open before Sync")
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if !g.Open(3) {
		t.Fatal("tag 3 must be open after Sync")
	}
}

func TestQueueReleasesDurablePrefixInOrder(t *testing.T) {
	s := gstore(t, 1)
	g := NewGate(s)
	var q Queue[int]
	appendTo := func(n int) { // the store accepts mutations up to LSN n
		for s.LastLSN() < uint64(n) {
			if err := s.AppendEntry(types.Entry{Index: types.Index(s.LastLSN() + 1), Term: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// drain hands the queue one core output batch, as a core's Drain* does.
	drain := func(items ...int) []int { return q.Drain(g, &items, nil) }
	held := []int{10, 11}
	if got := q.Drain(g, &held, nil); len(got) != 0 { // tag 1
		t.Fatalf("nothing durable yet, got %v", got)
	}
	if held != nil {
		t.Fatal("a held batch must be taken from the core, not reused")
	}
	appendTo(2)
	drain() // empty batches are dropped
	appendTo(3)
	drain(30)
	appendTo(5)
	drain(50)
	appendTo(6)
	if err := s.Sync(); err != nil { // durable through 6; the next Drain carries tag 7
		t.Fatal(err)
	}
	appendTo(7)
	got := drain(70)
	want := []int{10, 11, 30, 50}
	if len(got) != len(want) {
		t.Fatalf("Drain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Drain = %v, want %v", got, want)
		}
	}
	if !q.Pending() {
		t.Fatal("tag-7 batch should still be held")
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := drain(); len(got) != 1 || got[0] != 70 {
		t.Fatalf("Drain after Sync = %v, want [70]", got)
	}
	if q.Pending() {
		t.Fatal("queue should be drained")
	}
	// Nothing held and the gate open: the batch is appended to dst and the
	// core keeps its slice, emptied, for its next outputs.
	for _, gate := range []*Gate{g, nil} {
		in := make([]int, 1, 4)
		in[0] = 80
		dst := append(make([]int, 0, 4), 79)
		got := q.Drain(gate, &in, dst)
		if len(got) != 2 || got[1] != 80 || &got[0] != &dst[0] {
			t.Fatalf("open gate %v: Drain = %v, want [79 80] in dst", gate != nil, got)
		}
		if len(in) != 0 || cap(in) != 4 {
			t.Fatalf("open gate %v: core slice len %d cap %d, want 0 and 4", gate != nil, len(in), cap(in))
		}
	}
}

func TestActsRunInlineWithNilGate(t *testing.T) {
	var a Acts
	ran := false
	a.After(nil, func() { ran = true })
	if !ran {
		t.Fatal("nil gate must run the action inline")
	}
	if a.Pending() {
		t.Fatal("nothing should be queued")
	}
}

func TestActsDeferUntilDurable(t *testing.T) {
	s := gstore(t, 2)
	g := NewGate(s)
	var a Acts
	order := []int{}
	a.After(g, func() { order = append(order, 1) }) // tag 2
	if err := s.AppendEntry(types.Entry{Index: 3, Term: 1}); err != nil {
		t.Fatal(err)
	}
	a.After(g, func() { order = append(order, 2) }) // tag 3
	if len(order) != 0 {
		t.Fatal("actions ran before durability")
	}
	if a.Run(0) {
		t.Fatal("Run(0) should report nothing ran")
	}
	if !a.Run(2) || len(order) != 1 || order[0] != 1 {
		t.Fatalf("Run(2) should run only the tag-2 action, order=%v", order)
	}
	if !a.Run(3) || len(order) != 2 || order[1] != 2 {
		t.Fatalf("Run(3) should run the tag-3 action, order=%v", order)
	}
	if a.Pending() {
		t.Fatal("no actions should remain")
	}
}

// A deferred action may itself defer further work (a released self-vote
// wins an election whose no-op append defers the leader's self-match).
// Actions queued during Run for a not-yet-durable tag must survive to the
// next Run instead of being dropped or executed early.
func TestActsReentrantAfterDuringRun(t *testing.T) {
	s := gstore(t, 1)
	g := NewGate(s)
	var a Acts
	var ran []string
	a.After(g, func() {
		ran = append(ran, "first")
		if err := s.AppendEntry(types.Entry{Index: 2, Term: 1}); err != nil {
			t.Fatal(err)
		}
		a.After(g, func() { ran = append(ran, "second") }) // tag 2, not durable
	})
	if !a.Run(1) {
		t.Fatal("tag-1 action should run")
	}
	if len(ran) != 1 || ran[0] != "first" {
		t.Fatalf("only the first action should have run, got %v", ran)
	}
	if !a.Pending() {
		t.Fatal("the reentrantly queued action must still be pending")
	}
	if !a.Run(2) || len(ran) != 2 || ran[1] != "second" {
		t.Fatalf("Run(2) should run the reentrant action, got %v", ran)
	}
}
