// Package runtime hosts the sans-io consensus state machines on real time:
// a goroutine-per-node host drives a Machine's Step/Tick from a Transport
// and the wall clock. internal/harness drives the same Machine interface
// deterministically on virtual time, so a Fast Raft node, a C-Raft site and
// a shard manager are hosted the same way by both. The public hraft
// package and the runnable examples are built on this runtime.
package runtime

import (
	"sync"
	"time"

	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// Machine is the sans-io surface both hosts drive: Host here on wall-clock
// time, internal/harness on virtual time. fastraft.Node (Fast Raft, or
// classic Raft with its fast track off), craft.Node and shard.Manager
// satisfy it. The commit record is the one output that differs between
// machines, so it is drained beside the interface: by NewHost's
// drainCommitted here, by each cluster type's record hook in the harness.
type Machine interface {
	// Step delivers a message.
	Step(now time.Duration, env types.Envelope)
	// Tick advances time.
	Tick(now time.Duration)
	// NextDeadline reports when the machine next needs Tick (0 = never).
	NextDeadline() time.Duration
	// SyncDone advances the machine's storage durability horizon, so
	// outputs gated on fsync (internal/durable) release.
	SyncDone(now time.Duration, durableLSN uint64)
	// DrainOutbox appends outgoing messages to dst and returns it. The
	// drains keep their own buffers' capacity and never retain dst.
	DrainOutbox(dst []types.Envelope) []types.Envelope
	// DrainResolved appends local proposal resolutions to dst.
	DrainResolved(dst []types.Resolution) []types.Resolution
	// DrainReadDone appends resolved reads to dst.
	DrainReadDone(dst []types.ReadDone) []types.ReadDone
}

// Transport moves envelopes between hosts. One ownership rule holds for
// every transport, serializing or in-process:
//
//   - Send takes the envelope. The caller must not retain, modify or
//     re-send the message's slices once Send is called; payload bytes
//     (entry Data and Config, snapshot images) are read-only and may stay
//     shared.
//   - A delivered envelope belongs to the handler only until it returns.
//     The transport then gives the message's pooled parts back
//     (types.RecycleEnvelope), so a handler copies any slice it keeps.
type Transport interface {
	// Send dispatches one envelope asynchronously, taking ownership of it.
	// Implementations may drop messages (the protocols tolerate loss);
	// they must never call back into the sender synchronously.
	Send(env types.Envelope) error
	// SetHandler installs the delivery callback. The transport may invoke
	// it from any goroutine.
	SetHandler(h func(types.Envelope))
	// Close stops delivery.
	Close() error
}

// event is one drained output batch riding the apply pipeline; at is its
// enqueue instant (hist.apply_lag input). Its slices are drain buffers: the
// host fills them, the dispatcher empties them and hands them back through
// the host's free list, so a steady flow of batches allocates none.
type event[C any] struct {
	committed []C
	resolved  []types.Resolution
	reads     []types.ReadDone

	at time.Time
}

// freeEvents bounds the drained buffers the dispatcher hands back: enough
// for the host to find one ready whenever the dispatcher keeps up.
const freeEvents = 4

// applyQueue is the apply-pipeline depth: drained output batches buffered
// between the consensus goroutine and the callback dispatcher.
const applyQueue = 256

// Host runs one Machine on wall-clock time over a Transport. C is the
// machine's commit record. All machine access is serialized by the host's
// mutex; output callbacks run on a single dispatcher goroutine in output
// order, decoupled from the consensus goroutine by a bounded apply
// pipeline.
type Host[C any] struct {
	mu             sync.Mutex
	machine        Machine
	drainCommitted func([]C) []C
	tr             Transport
	start          time.Time
	timer          *time.Timer
	// armed is the machine deadline the timer is set for (0 = the timer
	// has fired or was never set). Most drains — one per delivery — leave
	// the deadline where it was, and leave the timer alone.
	armed   time.Duration
	stopped bool

	evCh     chan event[C]
	evDone   chan struct{}
	stopOnce sync.Once

	// outbuf is the outbox drain buffer, reused at once: the transport owns
	// each envelope once sent. next is the batch the drains fill; it is
	// handed to the dispatcher when non-empty and replaced from free, the
	// buffers the dispatcher is done with.
	outbuf []types.Envelope
	next   event[C]
	free   chan event[C]

	cb Callbacks[C]
}

// Callbacks observe a host's machine outputs. All callbacks run on a
// single dispatcher goroutine, in output order, never holding the host
// lock. The commit→apply pipeline between the consensus goroutine and the
// dispatcher is bounded: when the application cannot keep up, the
// consensus goroutine blocks on the full queue (backpressure) instead of
// buffering unboundedly.
type Callbacks[C any] struct {
	// OnCommit observes every commit record, in commit order.
	OnCommit func(C)
	// OnResolve observes local proposal resolutions.
	OnResolve func(types.Resolution)
	// OnReadDone observes resolved linearizable reads.
	OnReadDone func(types.ReadDone)
	// Recorder, when set, observes the pipeline's enqueue→dispatch delay
	// (hist.apply_lag).
	Recorder *trace.Recorder
}

// NewHost starts hosting the machine: delivery begins immediately and the
// first tick is scheduled. drainCommitted appends the machine's new commit
// records to its argument, like the machine's own drains.
func NewHost[C any](machine Machine, drainCommitted func([]C) []C, tr Transport, cb Callbacks[C]) *Host[C] {
	h := &Host[C]{
		machine:        machine,
		drainCommitted: drainCommitted,
		tr:             tr,
		start:          time.Now(),
		evCh:           make(chan event[C], applyQueue),
		evDone:         make(chan struct{}),
		free:           make(chan event[C], freeEvents),
		cb:             cb,
	}
	go h.dispatch()
	tr.SetHandler(h.deliver)
	h.mu.Lock()
	h.drainLocked()
	h.mu.Unlock()
	return h
}

// dispatch delivers pipelined machine outputs to the callbacks, in order.
func (h *Host[C]) dispatch() {
	for {
		var ev event[C]
		select {
		case ev = <-h.evCh:
		case <-h.evDone:
			return
		}
		h.cb.Recorder.ApplyLag(time.Since(ev.at))
		if h.cb.OnCommit != nil {
			for _, c := range ev.committed {
				h.cb.OnCommit(c)
			}
		}
		if h.cb.OnResolve != nil {
			for _, r := range ev.resolved {
				h.cb.OnResolve(r)
			}
		}
		if h.cb.OnReadDone != nil {
			for _, r := range ev.reads {
				h.cb.OnReadDone(r)
			}
		}
		ev.reset()
		select {
		case h.free <- ev:
		default: // the free list is full: these buffers become garbage
		}
	}
}

// reset empties every buffer, keeping its capacity and pinning no payloads.
func (ev *event[C]) reset() {
	clear(ev.committed)
	clear(ev.resolved)
	*ev = event[C]{committed: ev.committed[:0], resolved: ev.resolved[:0], reads: ev.reads[:0]}
}

// empty reports whether the batch carries no output.
func (ev *event[C]) empty() bool {
	return len(ev.committed)+len(ev.resolved)+len(ev.reads) == 0
}

// now returns the host's monotonic time since start.
func (h *Host[C]) now() time.Duration { return time.Since(h.start) }

// Do runs fn with exclusive access to the machine at the current host
// time, then drains outputs. It is how embedders call machine-specific
// methods (Propose, Join, Read, ...).
func (h *Host[C]) Do(fn func(now time.Duration)) {
	h.mu.Lock()
	if h.stopped {
		h.mu.Unlock()
		return
	}
	fn(h.now())
	h.drainLocked()
	h.mu.Unlock()
}

// Stop halts the host: no more ticks or deliveries. The transport is
// closed. Events still in the apply pipeline are dropped, as before: a
// stopping application no longer observes commits. evDone closes before
// the lock is taken so a consensus goroutine blocked on a full pipeline
// unblocks and releases the lock.
func (h *Host[C]) Stop() {
	h.stopOnce.Do(func() { close(h.evDone) })
	h.mu.Lock()
	if h.stopped {
		h.mu.Unlock()
		return
	}
	h.stopped = true
	if h.timer != nil {
		h.timer.Stop()
	}
	h.mu.Unlock()
	_ = h.tr.Close()
}

// NotifyDurable forwards a storage durability advance to the machine and
// drains any outputs that released. It is safe to call from a storage
// flusher goroutine: the WAL invokes its completion callback without
// internal locks held.
func (h *Host[C]) NotifyDurable(durableLSN uint64) {
	h.mu.Lock()
	if h.stopped {
		h.mu.Unlock()
		return
	}
	h.machine.SyncDone(h.now(), durableLSN)
	h.drainLocked()
	h.mu.Unlock()
}

func (h *Host[C]) deliver(env types.Envelope) {
	h.mu.Lock()
	if h.stopped {
		h.mu.Unlock()
		return
	}
	h.machine.Step(h.now(), env)
	h.drainLocked()
	h.mu.Unlock()
}

func (h *Host[C]) tick() {
	h.mu.Lock()
	if h.stopped {
		h.mu.Unlock()
		return
	}
	h.armed = 0 // fired: the drain below re-arms even for the same deadline
	h.machine.Tick(h.now())
	h.drainLocked()
	h.mu.Unlock()
}

// drainLocked flushes machine outputs and re-arms the tick timer. Callbacks
// fire after the lock is released to avoid re-entrancy deadlocks.
func (h *Host[C]) drainLocked() {
	h.outbuf = h.machine.DrainOutbox(h.outbuf[:0])
	for _, env := range h.outbuf {
		// Transport sends are asynchronous and may drop; errors are
		// treated as message loss, which the protocols tolerate.
		_ = h.tr.Send(env)
	}
	clear(h.outbuf)
	ev := &h.next
	ev.committed = h.drainCommitted(ev.committed)
	ev.resolved = h.machine.DrainResolved(ev.resolved)
	ev.reads = h.machine.DrainReadDone(ev.reads)
	if d := h.machine.NextDeadline(); d > 0 && d != h.armed {
		h.armed = d
		wait := d - h.now()
		if wait < 0 {
			wait = 0
		}
		if h.timer == nil {
			h.timer = time.AfterFunc(wait, h.tick)
		} else {
			h.timer.Stop()
			h.timer.Reset(wait)
		}
	}
	if ev.empty() {
		return
	}
	// Bounded handoff: a full pipeline blocks the consensus goroutine until
	// the dispatcher catches up (or the host stops). The dispatcher never
	// takes h.mu, so it always drains.
	ev.at = time.Now()
	select {
	case h.evCh <- *ev:
	case <-h.evDone:
		return
	}
	select {
	case h.next = <-h.free:
	default:
		h.next = event[C]{}
	}
}
