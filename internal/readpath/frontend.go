package readpath

import (
	"sort"
	"time"

	"github.com/hraft-io/hraft/internal/stats"
	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// Frontend is the per-node half of the read path shared by the consensus
// cores (the Manager being the per-leadership half): it assigns read
// tokens, serves leader-side reads through the Manager (lease fast path
// included), forwards follower-side reads to the leader with
// ReadRequest/ReadReply, retries them across leader changes, and emits
// resolutions. Exactly like the replica package's dispatch hoist, the
// NodeView accessor set is the only per-core variation, so the protocol
// cannot diverge between classic Raft and Fast Raft.
// Reads batch at the leader only (its next confirmation round): a
// forwarded read ships in the entry point that produced it.
type Frontend struct {
	nv       NodeView
	counters *stats.Counters
	rec      *trace.Recorder

	// seq numbers this node's reads. It starts at a Rand-drawn offset so a
	// restart cannot reuse the IDs of reads still in flight at the leader:
	// the leader de-duplicates forwarded reads by (origin, ID), and a
	// recycled ID would let a pre-restart read — recorded at an older
	// commit index — answer a post-restart read, a stale read.
	seq uint64
	// token numbers leader-side registrations with the Manager.
	token      uint64
	origins    map[uint64]readOrigin
	remoteKeys map[remoteReadKey]uint64
	pending    map[uint64]*pendingRead
	done       []types.ReadDone

	// unsent lists queued reads in order; entries of reads resolved or
	// held since they were queued are skipped.
	unsent []uint64
	// addressed is where every forwarded, unanswered read went: reads ship
	// only to the current leader and a leader change re-queues them all,
	// so one field stands in for a per-read destination.
	addressed types.NodeID
	// replyQ buffers leader-side resolutions per origin within one entry
	// point, so reads resolving together (a ReadIndex batch confirming, a
	// forwarded batch served off a valid lease) coalesce into one
	// ReadReply message.
	replyQ map[types.NodeID][]types.ReadResult
}

// NodeView is the slice of core state the frontend needs, as closures so
// it always observes the live values (the Manager in particular is
// leader-only and replaced every leadership).
type NodeView struct {
	// Self is this node's identity.
	Self types.NodeID
	// IsLeader reports whether the node currently leads.
	IsLeader func() bool
	// LeaderID returns the node's view of the leader (None if unknown).
	LeaderID func() types.NodeID
	// CommitIndex returns the node's commit index.
	CommitIndex func() types.Index
	// Floor returns the leader's completeness floor (this term's no-op
	// index); only consulted while leading.
	Floor func() types.Index
	// Manager returns the leadership's read manager (nil unless leader).
	Manager func() *Manager
	// Send transmits one protocol message.
	Send func(to types.NodeID, msg types.Message)
	// RetryTimeout paces follower-side re-forwarding (the cores pass the
	// proposal timeout).
	RetryTimeout time.Duration
	// RetrySoon is the short back-off after a negative ReadReply (the
	// cores pass the heartbeat interval: by then a fresh leader may be
	// known).
	RetrySoon time.Duration
}

// readOrigin identifies where a leader-side read came from: this node
// (answered through DrainDone) or a remote forwarder (answered with a
// ReadReply message).
type readOrigin struct {
	origin      types.NodeID
	id          uint64
	consistency types.ReadConsistency
	// trace is the read's sampled trace context (0 = unsampled): minted at
	// the origin, carried on the ReadSpec when forwarded, echoed on the
	// ReadResult.
	trace uint64
}

// remoteReadKey de-duplicates retried ReadRequests.
type remoteReadKey struct {
	origin types.NodeID
	id     uint64
}

// pendingRead is a read originated here while not leading: it forwards to
// the leader and retries until a reply arrives.
type pendingRead struct {
	consistency types.ReadConsistency
	deadline    time.Duration
	// queued marks the read as listed in unsent, waiting to ship. A read
	// neither queued nor held is out at the addressed leader.
	queued bool
	// held marks a follower-local read whose index the leader confirmed
	// (confirmedIdx) but the local commit index has not reached yet; it
	// resolves from Flush once commit catches up, or re-forwards if the
	// deadline passes first.
	held         bool
	confirmedIdx types.Index
	// trace is the sampled trace context minted when the read was issued
	// (0 = unsampled).
	trace uint64
}

// NewFrontend builds a frontend. seqStart seeds the token sequence (draw
// it from the node's Rand; see the seq field comment). counters may be
// shared with the owning node; rec (nil = disabled) receives read-serve
// flight-recorder events.
func NewFrontend(nv NodeView, seqStart uint64, counters *stats.Counters, rec *trace.Recorder) *Frontend {
	if counters == nil {
		counters = stats.NewCounters()
	}
	// Present from the first scrape, so that held ÷ served reads 0 of 0
	// rather than absent on a node that has forwarded nothing yet.
	counters.Add(CounterFollowerReads, 0)
	counters.Add(CounterFollowerHeld, 0)
	counters.Add(CounterForwardRequests, 0)
	return &Frontend{
		nv:         nv,
		counters:   counters,
		rec:        rec,
		seq:        seqStart,
		origins:    make(map[uint64]readOrigin),
		remoteKeys: make(map[remoteReadKey]uint64),
		pending:    make(map[uint64]*pendingRead),
		replyQ:     make(map[types.NodeID][]types.ReadResult),
	}
}

// Read registers a read under the given consistency mode and returns its
// token; the read resolves through DrainDone with the linearization index
// the state machine must be applied through before serving it. ReadStale
// resolves immediately from the local commit index on any role.
func (f *Frontend) Read(now time.Duration, c types.ReadConsistency) uint64 {
	if c == 0 {
		c = types.ReadLinearizable
	}
	f.seq++
	id := f.seq
	tid := f.rec.MintTrace()
	if c == types.ReadStale {
		f.counters.Inc(CounterStaleReads)
		idx := f.nv.CommitIndex()
		f.done = append(f.done, types.ReadDone{ID: id, Index: idx, OK: true})
		f.rec.ReadServe(now, id, idx, true, tid)
		return id
	}
	if f.nv.IsLeader() && f.nv.Manager() != nil {
		f.serve(readOrigin{origin: f.nv.Self, id: id, consistency: c, trace: tid}, now)
		return id
	}
	f.pending[id] = &pendingRead{consistency: c, deadline: now + f.nv.RetryTimeout, trace: tid}
	f.queue(id)
	f.Forward(now)
	return id
}

// DrainDone appends resolved reads to dst; the frontend keeps its buffer.
func (f *Frontend) DrainDone(dst []types.ReadDone) []types.ReadDone {
	return types.Drain(dst, &f.done)
}

// PendingCount counts unresolved reads originated on this node.
func (f *Frontend) PendingCount() int { return len(f.pending) }

// EachDeadline visits the pending reads' retry deadlines (NextDeadline
// accounting).
func (f *Frontend) EachDeadline(visit func(time.Duration)) {
	for _, p := range f.pending {
		visit(p.deadline)
	}
}

// queue lists a pending read for the next Forward, once; a held read
// queued this way re-confirms from scratch.
func (f *Frontend) queue(id uint64) {
	p := f.pending[id]
	p.held = false
	if !p.queued {
		p.queued = true
		f.unsent = append(f.unsent, id)
	}
}

// pendingIDs returns the IDs of the pending reads keep selects, ascending
// (map order must not leak into messages or resolutions).
func (f *Frontend) pendingIDs(keep func(*pendingRead) bool) []uint64 {
	var ids []uint64
	for id, p := range f.pending {
		if keep(p) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Forward ships every queued read to the leader in one ReadRequest; with
// no known leader, or while leading, the queue waits. If the leader moved
// since the last shipment, the reads still out at the old one queue first
// (the leader's (origin, ID) de-duplication makes a re-send safe). Read
// and Retry call it, and the cores at the end of Step, so reads follow a
// new leader as soon as a message reveals it.
func (f *Frontend) Forward(now time.Duration) {
	leader := f.nv.LeaderID()
	if leader == types.None || leader == f.nv.Self {
		return
	}
	if leader != f.addressed {
		f.addressed = leader
		for _, id := range f.pendingIDs(func(p *pendingRead) bool { return !p.queued && !p.held }) {
			f.queue(id)
		}
	}
	specs := make([]types.ReadSpec, 0, len(f.unsent))
	for _, id := range f.unsent {
		p, ok := f.pending[id]
		if !ok || !p.queued {
			continue
		}
		p.queued = false
		f.counters.Inc(CounterForwarded)
		specs = append(specs, types.ReadSpec{ID: id, Consistency: p.consistency, Trace: p.trace})
		f.rec.TraceHop(now, p.trace, trace.HopReadForward, leader, 0)
	}
	f.unsent = f.unsent[:0]
	if len(specs) == 0 {
		return
	}
	f.counters.Inc(CounterForwardRequests)
	f.nv.Send(leader, types.ReadRequest{Reads: specs})
}

// queueReply buffers one remote resolution; flushReplies ships the per-
// origin batches at the end of the entry point that produced them.
func (f *Frontend) queueReply(origin types.NodeID, r types.ReadResult) {
	f.replyQ[origin] = append(f.replyQ[origin], r)
}

func (f *Frontend) flushReplies() {
	if len(f.replyQ) == 0 {
		return
	}
	origins := make([]types.NodeID, 0, len(f.replyQ))
	for o := range f.replyQ {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	for _, o := range origins {
		f.nv.Send(o, types.ReadReply{Results: f.replyQ[o]})
		delete(f.replyQ, o)
	}
}

// serve handles a read on the leader. Lease-based reads with a valid
// lease resolve immediately from the commit index — clock-free, no round;
// everything else joins the next heartbeat round's ReadIndex batch at
// max(commitIndex, floor), the floor being this term's no-op index below
// which a new leader cannot vouch for completeness.
func (f *Frontend) serve(o readOrigin, now time.Duration) {
	mgr := f.nv.Manager()
	commit := f.nv.CommitIndex()
	if o.consistency == types.ReadLeaseBased &&
		mgr.LeaseValid(now) && commit >= f.nv.Floor() {
		f.counters.Inc(CounterLeaseReads)
		f.finish(o, commit, true, now)
		return
	}
	f.token++
	tok := f.token
	f.origins[tok] = o
	if o.origin != f.nv.Self {
		f.remoteKeys[remoteReadKey{o.origin, o.id}] = tok
	}
	idx := commit
	if floor := f.nv.Floor(); floor > idx {
		idx = floor
	}
	mgr.Add(tok, idx)
}

// finish resolves one read toward its origin (a zero origin — a
// superseded registration — is dropped by the core's send guard).
func (f *Frontend) finish(o readOrigin, idx types.Index, ok bool, now time.Duration) {
	f.rec.ReadServe(now, o.id, idx, ok, o.trace)
	if o.origin == f.nv.Self {
		f.done = append(f.done, types.ReadDone{ID: o.id, Index: idx, OK: ok})
		return
	}
	f.queueReply(o.origin, types.ReadResult{ID: o.id, Index: idx, OK: ok, Trace: o.trace})
}

// Flush releases confirmed reads the commit index has caught up to — the
// Manager's leader-side queue and the follower-local holds alike. The
// cores call it after commit advancement and after folding heartbeat
// acks.
func (f *Frontend) Flush(now time.Duration) {
	f.releaseHeld(now)
	mgr := f.nv.Manager()
	if mgr == nil {
		return
	}
	for _, d := range mgr.Release(f.nv.CommitIndex()) {
		o := f.origins[d.Token]
		delete(f.origins, d.Token)
		if o.origin != f.nv.Self {
			delete(f.remoteKeys, remoteReadKey{o.origin, o.id})
		}
		f.finish(o, d.Index, d.OK, now)
	}
	f.flushReplies()
}

// FailLeaderReads fails every leader-side read on step-down: local reads
// fall back to the forward path (queued for the successor, trace context
// kept), remote origins get a negative reply so they re-forward
// themselves. Call it before discarding the Manager.
func (f *Frontend) FailLeaderReads(now time.Duration) {
	mgr := f.nv.Manager()
	if mgr == nil {
		return
	}
	for _, d := range mgr.FailAll() {
		o := f.origins[d.Token]
		if o.origin == f.nv.Self {
			f.pending[o.id] = &pendingRead{consistency: o.consistency, deadline: now + f.nv.RetrySoon, trace: o.trace}
			f.queue(o.id)
			continue
		}
		f.queueReply(o.origin, types.ReadResult{ID: o.id, OK: false})
	}
	f.origins = make(map[uint64]readOrigin)
	f.remoteKeys = make(map[remoteReadKey]uint64)
	f.flushReplies()
}

// Retry re-forwards due pending reads (leader unknown at issue time, lost
// request or reply, deposed leader); a node that just became leader
// serves every pending read itself, deadline or not.
func (f *Frontend) Retry(now time.Duration) {
	if f.nv.IsLeader() && f.nv.Manager() != nil {
		for _, id := range f.pendingIDs(func(*pendingRead) bool { return true }) {
			p := f.pending[id]
			delete(f.pending, id)
			f.serve(readOrigin{origin: f.nv.Self, id: id, consistency: p.consistency, trace: p.trace}, now)
		}
		return
	}
	// Due reads (request lost or refused, or held with catch-up stalled)
	// re-confirm from scratch in one fresh request.
	for _, id := range f.pendingIDs(func(p *pendingRead) bool { return now >= p.deadline }) {
		f.pending[id].deadline = now + f.nv.RetryTimeout
		f.queue(id)
	}
	f.Forward(now)
}

// OnReadRequest serves a forwarded read, or refuses it when this node
// cannot (the origin retries toward the then-current leader).
func (f *Frontend) OnReadRequest(from types.NodeID, m types.ReadRequest, now time.Duration) {
	if !f.nv.IsLeader() || f.nv.Manager() == nil {
		for _, spec := range m.Reads {
			f.queueReply(from, types.ReadResult{ID: spec.ID, OK: false})
		}
		f.flushReplies()
		return
	}
	for _, spec := range m.Reads {
		c := spec.Consistency
		if c == 0 || c == types.ReadStale {
			// Stale reads are served locally by the origin and never
			// forwarded; treat anything nonsensical as a full ReadIndex
			// read.
			c = types.ReadLinearizable
		}
		f.rec.TraceHop(now, spec.Trace, trace.HopReadServe, from, 0)
		if tok, dup := f.remoteKeys[remoteReadKey{from, spec.ID}]; dup {
			// A retry supersedes the original registration: re-record at
			// the current commit index instead of answering with the old
			// one. That is always correct for the retrying caller (a later
			// index serves an earlier read a fortiori) and it closes a
			// stale-read hole — an origin that restarted and recycled its
			// ID space (deterministic seeds replay the Rand-drawn offset)
			// must not be answered at an index recorded before writes it
			// has since observed. The orphaned token releases into a zero
			// origin, which finish drops.
			delete(f.origins, tok)
			delete(f.remoteKeys, remoteReadKey{from, spec.ID})
		}
		f.serve(readOrigin{origin: from, id: spec.ID, consistency: c, trace: spec.Trace}, now)
	}
	f.flushReplies()
}

// releaseHeld resolves follower-local reads whose confirmed index the
// local commit index has reached: the state machine here now covers every
// write the read must observe, so the follower serves it locally.
func (f *Frontend) releaseHeld(now time.Duration) {
	commit := f.nv.CommitIndex()
	for _, id := range f.pendingIDs(func(p *pendingRead) bool { return p.held && p.confirmedIdx <= commit }) {
		p := f.pending[id]
		delete(f.pending, id)
		f.counters.Inc(CounterFollowerReads)
		f.done = append(f.done, types.ReadDone{ID: id, Index: p.confirmedIdx, OK: true})
		f.rec.ReadServe(now, id, p.confirmedIdx, true, p.trace)
	}
}

// OnReadReply resolves the reads of one forwarded request, whichever of
// several outstanding requests it answers.
func (f *Frontend) OnReadReply(m types.ReadReply, now time.Duration) {
	for _, r := range m.Results {
		p, ok := f.pending[r.ID]
		if !ok {
			continue // duplicate or late result
		}
		if r.OK {
			if p.consistency == types.ReadFollowerLocal && f.nv.CommitIndex() < r.Index {
				// The leader vouched for r.Index but this node's log has not
				// caught up: hold the read until the local commit index
				// covers it (releaseHeld), so the caller may serve it from
				// local state. The refreshed deadline re-forwards it if the
				// catch-up stalls (a later confirmed index is still correct).
				if !p.held {
					f.counters.Inc(CounterFollowerHeld)
				}
				p.held = true
				p.queued = false
				p.confirmedIdx = r.Index
				p.deadline = now + f.nv.RetryTimeout
				continue
			}
			delete(f.pending, r.ID)
			if p.consistency == types.ReadFollowerLocal {
				f.counters.Inc(CounterFollowerReads)
			}
			f.done = append(f.done, types.ReadDone{ID: r.ID, Index: r.Index, OK: true})
			f.rec.ReadServe(now, r.ID, r.Index, true, p.trace)
			continue
		}
		// The responder could not serve it (deposed or not leader): retry
		// soon, by when a fresh leader may be known.
		p.deadline = now + f.nv.RetrySoon
	}
}
