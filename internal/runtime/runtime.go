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

// Machine is the sans-io node interface the runtime can host. Both
// fastraft.Node, raft.Node and craft.Node satisfy it.
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
	// TakeOutbox drains outgoing messages.
	TakeOutbox() []types.Envelope
	// TakeCommitted drains newly committed entries.
	TakeCommitted() []types.Entry
	// TakeResolved drains local proposal resolutions.
	TakeResolved() []types.Resolution
}

// GlobalCommitter is implemented by machines that additionally expose a
// global committed stream (C-Raft).
type GlobalCommitter interface {
	// TakeGlobalCommitted drains entries newly committed to the global
	// log.
	TakeGlobalCommitted() []types.Entry
}

// Reader is implemented by machines exposing the linearizable read
// subsystem (all three cores).
type Reader interface {
	// TakeReadDone drains resolved reads.
	TakeReadDone() []types.ReadDone
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
// Such machines return nothing from the flat Take* drains.
type GroupOutputs interface {
	// TakeGroupCommitted drains newly committed entries across all groups,
	// each tagged with its group, in per-group commit order.
	TakeGroupCommitted() []GroupEntry
	// TakeGroupResolved drains local proposal resolutions across groups.
	TakeGroupResolved() []GroupResolution
	// TakeGroupReadDone drains resolved reads across groups.
	TakeGroupReadDone() []GroupRead
}

// Transport moves envelopes between hosts.
type Transport interface {
	// Send dispatches one envelope asynchronously. Implementations may
	// drop messages (the protocols tolerate loss); they must never call
	// back into the sender synchronously.
	Send(env types.Envelope) error
	// SetHandler installs the delivery callback. The transport may invoke
	// it from any goroutine.
	SetHandler(h func(types.Envelope))
	// Close stops delivery.
	Close() error
}

// event is one drained output batch riding the apply pipeline; at is its
// enqueue instant (hist.apply_lag input).
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
	}
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
	for _, env := range h.machine.TakeOutbox() {
		// Transport sends are asynchronous and may drop; errors are
		// treated as message loss, which the protocols tolerate.
		_ = h.tr.Send(env)
	}
	committed := h.machine.TakeCommitted()
	resolved := h.machine.TakeResolved()
	var global []types.Entry
	if gc, ok := h.machine.(GlobalCommitter); ok {
		global = gc.TakeGlobalCommitted()
	}
	var reads []types.ReadDone
	if rd, ok := h.machine.(Reader); ok {
		reads = rd.TakeReadDone()
	}
	var gCommitted []GroupEntry
	var gResolved []GroupResolution
	var gReads []GroupRead
	if gm, ok := h.machine.(GroupOutputs); ok {
		gCommitted = gm.TakeGroupCommitted()
		gResolved = gm.TakeGroupResolved()
		gReads = gm.TakeGroupReadDone()
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
	if len(committed)+len(resolved)+len(global)+len(reads)+
		len(gCommitted)+len(gResolved)+len(gReads) == 0 {
		return
	}
	// Bounded handoff: a full pipeline blocks the consensus goroutine until
	// the dispatcher catches up (or the host stops). The dispatcher never
	// takes h.mu, so it always drains.
	ev := event{
		committed: committed, global: global, resolved: resolved, reads: reads,
		gCommitted: gCommitted, gResolved: gResolved, gReads: gReads,
		at: time.Now(),
	}
	select {
	case h.evCh <- ev:
	case <-h.evDone:
	}
}
