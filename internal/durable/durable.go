// Package durable gates consensus outputs on storage durability.
//
// With group commit (storage.Grouped), a core's persist calls return before
// the bytes hit disk. Everything the core emits that the outside world may
// act on — outbound messages, committed entries, resolved proposals — must
// therefore be held until the storage horizon (DurableLSN) passes the LSN
// the output depends on. The helpers here implement that uniformly:
//
//   - Gate wraps the store and stamps outputs with the current LSN;
//   - Queue holds tagged output batches and releases the durable prefix;
//   - Acts defers internal self-acknowledgements (own votes, own match
//     index) the same way, so a node never counts its own contribution
//     toward an election or a commit before that contribution is on disk.
//
// When the store is not grouped (Gate == nil by convention), every helper
// degenerates to pass-through and the cores behave exactly as before.
package durable

import (
	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/types"
)

// Gate stamps core outputs with the storage LSN they depend on.
type Gate struct {
	g storage.Grouped
}

// NewGate returns a Gate over s, or nil when s does not defer durability
// (callers treat a nil *Gate as "everything durable immediately").
func NewGate(s storage.Storage) *Gate {
	if g := storage.AsGrouped(s); g != nil {
		return &Gate{g: g}
	}
	return nil
}

// Tag returns the LSN a batch of outputs produced now depends on: the last
// accepted mutation. Outputs tagged T are safe to release once the durable
// horizon reaches T.
func (g *Gate) Tag() uint64 {
	if g == nil {
		return 0
	}
	return g.g.LastLSN()
}

// Durable returns the current durable horizon.
func (g *Gate) Durable() uint64 {
	if g == nil {
		return ^uint64(0)
	}
	return g.g.DurableLSN()
}

// Open reports whether outputs tagged tag may be released now.
func (g *Gate) Open(tag uint64) bool { return g == nil || tag <= g.g.DurableLSN() }

// Ready reports whether an output depending on every mutation accepted so
// far may be released now: always with a nil gate. Cores test it before
// Acts.After so the synchronous path runs inline without a heap closure.
func (g *Gate) Ready() bool { return g.Open(g.Tag()) }

// batch is one held output batch.
type batch[T any] struct {
	tag   uint64
	items []T
}

// Queue holds tagged output batches in FIFO order and releases the prefix
// at or below the durable horizon. Tags are non-decreasing (LSNs only grow),
// so release order equals hold order.
type Queue[T any] struct {
	held []batch[T]
}

// Drain releases a core's outputs since its last drain (*items) under the
// LSN they depend on, appending every output now durable to dst in order.
// When nothing is held and the gate is open the outputs are copied to dst
// and *items is truncated, keeping its capacity for the core's next outputs,
// so synchronous storage allocates nothing. Otherwise the queue takes the
// slice itself and sets *items to nil: a held batch is never reused before
// it is released.
func (q *Queue[T]) Drain(g *Gate, items *[]T, dst []T) []T {
	tag, durable := g.Tag(), g.Durable()
	if len(q.held) == 0 && tag <= durable {
		return types.Drain(dst, items)
	}
	if len(*items) > 0 {
		q.held = append(q.held, batch[T]{tag: tag, items: *items})
		*items = nil
	}
	n := 0
	for ; n < len(q.held) && q.held[n].tag <= durable; n++ {
		dst = append(dst, q.held[n].items...)
		q.held[n] = batch[T]{}
	}
	if q.held = q.held[n:]; len(q.held) == 0 {
		q.held = nil
	}
	return dst
}

// Pending reports whether any batches are still held.
func (q *Queue[T]) Pending() bool { return len(q.held) > 0 }

// act is one deferred self-acknowledgement.
type act struct {
	tag uint64
	f   func()
}

// Acts defers internal actions (self-votes, self-match recording) until
// the records they depend on are durable.
type Acts struct {
	acts []act
}

// After runs f now when the gate is open for its tag, otherwise queues it
// for Run. With a nil gate everything runs immediately (synchronous
// storage).
func (a *Acts) After(g *Gate, f func()) {
	if g == nil {
		f()
		return
	}
	tag := g.Tag()
	if tag <= g.Durable() {
		f()
		return
	}
	a.acts = append(a.acts, act{tag: tag, f: f})
}

// Run executes (in order) every queued action whose tag is at or below
// durable, and reports whether any ran.
func (a *Acts) Run(durable uint64) bool {
	n := 0
	for n < len(a.acts) && a.acts[n].tag <= durable {
		a.acts[n].f()
		a.acts[n] = act{}
		n++
	}
	if n == 0 {
		return false
	}
	a.acts = a.acts[n:]
	if len(a.acts) == 0 {
		a.acts = nil
	}
	return true
}

// Pending reports whether any actions are still deferred.
func (a *Acts) Pending() bool { return len(a.acts) > 0 }
