// Package runtime hosts the sans-io consensus state machines on real time:
// a goroutine-per-node host drives Step/Tick from a Transport and wall
// clock, in contrast to internal/harness which drives the same machines
// deterministically on virtual time. The public hraft package and the
// runnable examples are built on this runtime.
package runtime

import (
	"sync"
	"time"

	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// Machine is the sans-io node interface the runtime can host. fastraft.Node
// (Fast Raft, or classic Raft with its fast track off) and craft.Node
// satisfy it.
type Machine interface {
	// ID returns the node identity.
	ID() types.NodeID
	// Role returns the current role.
	Role() types.Role
	// Term returns the current term.
	Term() types.Term
	// LeaderID returns the node's view of the leader.
	LeaderID() types.NodeID
	// CommitIndex returns the commit index.
	CommitIndex() types.Index
	// Step delivers a message.
	Step(now time.Duration, env types.Envelope)
	// Tick advances time.
	Tick(now time.Duration)
	// NextDeadline reports when the node next needs Tick (0 = never).
	NextDeadline() time.Duration
	// Propose submits an application payload.
	Propose(now time.Duration, data []byte) types.ProposalID
	// DrainOutbox appends outgoing messages to dst and returns it. The
	// drains keep their own buffers' capacity and never retain dst.
	DrainOutbox(dst []types.Envelope) []types.Envelope
	// DrainCommitted appends newly committed entries to dst.
	DrainCommitted(dst []types.Entry) []types.Entry
	// DrainResolved appends local proposal resolutions to dst.
	DrainResolved(dst []types.Resolution) []types.Resolution
}

// GlobalCommitter is implemented by machines that additionally expose a
// global committed stream (C-Raft).
type GlobalCommitter interface {
	// DrainGlobalCommitted appends entries newly committed to the global
	// log to dst.
	DrainGlobalCommitted(dst []types.Entry) []types.Entry
}

// Reader is implemented by machines exposing the linearizable read
// subsystem (both cores).
type Reader interface {
	// DrainReadDone appends resolved reads to dst.
	DrainReadDone(dst []types.ReadDone) []types.ReadDone
}

// Synced is implemented by machines whose outputs gate on storage
// durability (group-commit storage): the host forwards fsync completions
// through NotifyDurable so deferred outputs release.
type Synced interface {
	// SyncDone advances the machine's durability horizon.
	SyncDone(now time.Duration, durableLSN uint64)
}

// GroupEntry is a committed entry attributed to its consensus group, for
// multi-group (sharded) machines.
type GroupEntry struct {
	Group types.GroupID
	Entry types.Entry
}

// GroupResolution is a proposal resolution attributed to its group.
type GroupResolution struct {
	Group      types.GroupID
	Resolution types.Resolution
}

// GroupRead is a resolved read attributed to its group.
type GroupRead struct {
	Group types.GroupID
	Done  types.ReadDone
}

// GroupOutputs is implemented by machines multiplexing several consensus
// groups (shard.Manager): outputs carry the group they belong to, so the
// host can dispatch each group's commits to the right state-machine slice.
// Such machines return nothing from the flat Drain* calls.
type GroupOutputs interface {
	// DrainGroupCommitted appends newly committed entries across all
	// groups, each tagged with its group, in per-group commit order.
	DrainGroupCommitted(dst []GroupEntry) []GroupEntry
	// DrainGroupResolved appends local proposal resolutions across groups.
	DrainGroupResolved(dst []GroupResolution) []GroupResolution
	// DrainGroupReadDone appends resolved reads across groups.
	DrainGroupReadDone(dst []GroupRead) []GroupRead
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
type event struct {
	committed []types.Entry
	global    []types.Entry
	resolved  []types.Resolution
	reads     []types.ReadDone

	// Group-attributed outputs (multi-group machines only).
	gCommitted []GroupEntry
	gResolved  []GroupResolution
	gReads     []GroupRead

	at time.Time
}

// freeEvents bounds the drained buffers the dispatcher hands back: enough
// for the host to find one ready whenever the dispatcher keeps up.
const freeEvents = 4

// DefaultApplyQueue is the apply-pipeline depth (drained output batches
// buffered between the consensus goroutine and the callback dispatcher)
// when Callbacks.ApplyQueueSize is zero.
const DefaultApplyQueue = 256

// Host runs one Machine on wall-clock time over a Transport. All machine
// access is serialized by the host's mutex; output callbacks run on a
// single dispatcher goroutine in output order, decoupled from the
// consensus goroutine by a bounded apply pipeline.
type Host struct {
	mu      sync.Mutex
	machine Machine
	tr      Transport
	start   time.Time
	timer   *time.Timer
	// armed is the machine deadline the timer is set for (0 = the timer
	// has fired or was never set). Most drains — one per delivery — leave
	// the deadline where it was, and leave the timer alone.
	armed   time.Duration
	stopped bool

	evCh     chan event
	evDone   chan struct{}
	stopOnce sync.Once

	// outbuf is the outbox drain buffer, reused at once: the transport owns
	// each envelope once sent. next is the batch the drains fill; it is
	// handed to the dispatcher when non-empty and replaced from free, the
	// buffers the dispatcher is done with.
	outbuf []types.Envelope
	next   event
	free   chan event

	cb Callbacks
}

// Callbacks observe a host's machine outputs. All callbacks run on a
// single dispatcher goroutine, in output order, never holding the host
// lock. The commit→apply pipeline between the consensus goroutine and the
// dispatcher is bounded: when the application cannot keep up, the
// consensus goroutine blocks on the full queue (backpressure) instead of
// buffering unboundedly.
type Callbacks struct {
	// OnCommit observes every committed entry, in commit order.
	OnCommit func(types.Entry)
	// OnGlobalCommit observes global-log commits for C-Raft machines.
	OnGlobalCommit func(types.Entry)
	// OnResolve observes local proposal resolutions.
	OnResolve func(types.Resolution)
	// OnReadDone observes resolved linearizable reads.
	OnReadDone func(types.ReadDone)
	// OnGroupCommit observes committed entries of multi-group machines,
	// tagged with their group, in per-group commit order.
	OnGroupCommit func(types.GroupID, types.Entry)
	// OnGroupResolve observes proposal resolutions of multi-group machines.
	OnGroupResolve func(types.GroupID, types.Resolution)
	// OnGroupReadDone observes resolved reads of multi-group machines.
	OnGroupReadDone func(types.GroupID, types.ReadDone)
	// ApplyQueueSize bounds the apply pipeline in drained output batches
	// (0 = DefaultApplyQueue).
	ApplyQueueSize int
	// Recorder, when set, observes the pipeline's enqueue→dispatch delay
	// (hist.apply_lag).
	Recorder *trace.Recorder
}

// NewHost starts hosting the machine: delivery begins immediately and the
// first tick is scheduled.
func NewHost(machine Machine, tr Transport, cb Callbacks) *Host {
	size := cb.ApplyQueueSize
	if size <= 0 {
		size = DefaultApplyQueue
	}
	h := &Host{
		machine: machine,
		tr:      tr,
		start:   time.Now(),
		evCh:    make(chan event, size),
		evDone:  make(chan struct{}),
		free:    make(chan event, freeEvents),
		cb:      cb,
	}
	go h.dispatch()
	tr.SetHandler(h.deliver)
	h.mu.Lock()
	h.drainLocked()
	h.mu.Unlock()
	return h
}

// dispatch delivers pipelined machine outputs to the callbacks, in order.
func (h *Host) dispatch() {
	for {
		var ev event
		select {
		case ev = <-h.evCh:
		case <-h.evDone:
			return
		}
		h.cb.Recorder.ApplyLag(time.Since(ev.at))
		if h.cb.OnCommit != nil {
			for _, e := range ev.committed {
				h.cb.OnCommit(e)
			}
		}
		if h.cb.OnGlobalCommit != nil {
			for _, e := range ev.global {
				h.cb.OnGlobalCommit(e)
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
		if h.cb.OnGroupCommit != nil {
			for _, ge := range ev.gCommitted {
				h.cb.OnGroupCommit(ge.Group, ge.Entry)
			}
		}
		if h.cb.OnGroupResolve != nil {
			for _, gr := range ev.gResolved {
				h.cb.OnGroupResolve(gr.Group, gr.Resolution)
			}
		}
		if h.cb.OnGroupReadDone != nil {
			for _, gr := range ev.gReads {
				h.cb.OnGroupReadDone(gr.Group, gr.Done)
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
func (ev *event) reset() {
	clear(ev.committed)
	clear(ev.global)
	clear(ev.resolved)
	clear(ev.gCommitted)
	clear(ev.gResolved)
	*ev = event{
		committed: ev.committed[:0], global: ev.global[:0],
		resolved: ev.resolved[:0], reads: ev.reads[:0],
		gCommitted: ev.gCommitted[:0], gResolved: ev.gResolved[:0], gReads: ev.gReads[:0],
	}
}

// empty reports whether the batch carries no output.
func (ev *event) empty() bool {
	return len(ev.committed)+len(ev.resolved)+len(ev.global)+len(ev.reads)+
		len(ev.gCommitted)+len(ev.gResolved)+len(ev.gReads) == 0
}

// now returns the host's monotonic time since start.
func (h *Host) now() time.Duration { return time.Since(h.start) }

// Machine returns the hosted machine. Callers must use Do for safe access.
func (h *Host) Machine() Machine { return h.machine }

// Do runs fn with exclusive access to the machine at the current host
// time, then drains outputs. It is how embedders call machine-specific
// methods (Join, Leave, ProposeEntry, ...).
func (h *Host) Do(fn func(now time.Duration, m Machine)) {
	h.mu.Lock()
	if h.stopped {
		h.mu.Unlock()
		return
	}
	fn(h.now(), h.machine)
	h.drainLocked()
	h.mu.Unlock()
}

// Propose submits a payload and returns its proposal ID.
func (h *Host) Propose(data []byte) types.ProposalID {
	var pid types.ProposalID
	h.Do(func(now time.Duration, m Machine) {
		pid = m.Propose(now, data)
	})
	return pid
}

// Stop halts the host: no more ticks or deliveries. The transport is
// closed. Events still in the apply pipeline are dropped, as before: a
// stopping application no longer observes commits. evDone closes before
// the lock is taken so a consensus goroutine blocked on a full pipeline
// unblocks and releases the lock.
func (h *Host) Stop() {
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

// NotifyDurable forwards a storage durability advance to the machine (when
// it gates on durability) and drains any outputs that released. It is safe
// to call from a storage flusher goroutine: the WAL invokes its completion
// callback without internal locks held.
func (h *Host) NotifyDurable(durableLSN uint64) {
	s, ok := h.machine.(Synced)
	if !ok {
		return
	}
	h.mu.Lock()
	if h.stopped {
		h.mu.Unlock()
		return
	}
	s.SyncDone(h.now(), durableLSN)
	h.drainLocked()
	h.mu.Unlock()
}

func (h *Host) deliver(env types.Envelope) {
	h.mu.Lock()
	if h.stopped {
		h.mu.Unlock()
		return
	}
	h.machine.Step(h.now(), env)
	h.drainLocked()
	h.mu.Unlock()
}

func (h *Host) tick() {
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
func (h *Host) drainLocked() {
	h.outbuf = h.machine.DrainOutbox(h.outbuf[:0])
	for _, env := range h.outbuf {
		// Transport sends are asynchronous and may drop; errors are
		// treated as message loss, which the protocols tolerate.
		_ = h.tr.Send(env)
	}
	clear(h.outbuf)
	ev := &h.next
	ev.committed = h.machine.DrainCommitted(ev.committed)
	ev.resolved = h.machine.DrainResolved(ev.resolved)
	if gc, ok := h.machine.(GlobalCommitter); ok {
		ev.global = gc.DrainGlobalCommitted(ev.global)
	}
	if rd, ok := h.machine.(Reader); ok {
		ev.reads = rd.DrainReadDone(ev.reads)
	}
	if gm, ok := h.machine.(GroupOutputs); ok {
		ev.gCommitted = gm.DrainGroupCommitted(ev.gCommitted)
		ev.gResolved = gm.DrainGroupResolved(ev.gResolved)
		ev.gReads = gm.DrainGroupReadDone(ev.gReads)
	}
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
		h.next = event{}
	}
}
