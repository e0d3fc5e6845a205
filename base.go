package hraft

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/hraft-io/hraft/internal/audit"
	"github.com/hraft-io/hraft/internal/runtime"
	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// machine is a node type's core as base hosts it: fastraft.Node,
// craft.Node or shard.Manager.
type machine interface {
	runtime.Machine
	ID() NodeID
	Metrics() map[string]uint64
}

// logCore is a core over one replicated log: fastraft.Node behind Node
// and RaftNode, craft.Node (whose log is its cluster's local one) behind
// CRaftNode.
type logCore interface {
	machine
	groupView
	Propose(now time.Duration, data []byte) ProposalID
	OpenSession(now time.Duration) ProposalID
	ProposeSession(now time.Duration, sid SessionID, seq, ack uint64, data []byte) ProposalID
	Read(now time.Duration, c ReadConsistency) uint64
	PeerStatus() []PeerStatus
	LeaseUntil() time.Duration
}

// base is what every node type shares: its core m on a runtime host (C is
// the core's commit record), the online safety auditor, and the waiters
// that turn resolutions and read completions into finished calls.
type base[C any, M machine] struct {
	m     M
	host  *runtime.Host[C]
	aud   *audit.Auditor
	props waiters[ProposalID, Index]
	reads waiters[uint64, types.ReadDone]
}

// logNode is base over a core with one replicated log; it defines the
// methods Node, RaftNode and CRaftNode share.
type logNode[C any, M logCore] struct{ base[C, M] }

// checkRequired reports a missing ID or Transport, which every node type's
// options (named by opts in the error) require.
func checkRequired(opts string, id NodeID, tr Transport) error {
	if id == types.None {
		return fmt.Errorf("hraft: %s.ID is required", opts)
	}
	if tr == nil {
		return fmt.Errorf("hraft: %s.Transport is required", opts)
	}
	return nil
}

// commitBuffer sizes a commit channel: the options' CommitBuffer, or 1024
// when unset.
func commitBuffer(n int) int {
	if n <= 0 {
		return 1024
	}
	return n
}

// start hosts m on tr: its commit records, drained by drainCommitted, go
// to onCommit; its resolutions and read completions to the waiters; the
// durability advances of s to the machine (see wireDurability).
func (b *base[C, M]) start(m M, aud *audit.Auditor, rec *trace.Recorder, drainCommitted func([]C) []C, onCommit func(C), tr Transport, s Storage) {
	b.m, b.aud = m, aud
	b.host = runtime.NewHost(m, drainCommitted, tr, runtime.Callbacks[C]{
		OnCommit:   onCommit,
		OnResolve:  func(r types.Resolution) { b.props.resolve(r.PID, r.Index) },
		OnReadDone: func(d types.ReadDone) { b.reads.resolve(d.ID, d) },
		Recorder:   rec,
	})
	wireDurability(b.host, s, rec)
}

// wireDurability connects group-commit storage to a host: fsync
// completions flow back through NotifyDurable so durability-gated machine
// outputs release, and (when tracing) each durable batch feeds the
// hist.fsync_batch_size histogram. A no-op for synchronous storage.
func wireDurability[C any](host *runtime.Host[C], s Storage, rec *trace.Recorder) {
	g := storage.AsGrouped(s)
	if g == nil {
		return
	}
	g.OnDurable(host.NotifyDurable)
	if rec == nil {
		return
	}
	type fsyncObservable interface {
		SetFsyncObserver(func(records, bytes int, took time.Duration))
	}
	if fo, ok := s.(fsyncObservable); ok {
		start := time.Now()
		fo.SetFsyncObserver(func(records, bytes int, _ time.Duration) {
			rec.FsyncBatch(time.Since(start), records, bytes)
		})
	}
}

// ID returns the node's identity (a sharded node's process ID).
func (b *base[C, M]) ID() NodeID { return b.m.ID() }

// Metrics returns a snapshot of the node's monotonic counters (the keys
// are listed in each node type's comment) and the safety auditor's
// audit.violations.* counters. Publish them with PublishExpvar or scrape
// periodically; counters only ever increase.
func (b *base[C, M]) Metrics() map[string]uint64 {
	var m map[string]uint64
	b.host.Do(func(time.Duration) { m = b.m.Metrics() })
	b.aud.MergeMetrics(m)
	return m
}

// Stop halts the node, like a crash: peers detect the silence. Every call
// still waiting on the node (Propose, Read, Session.Propose, ...) and every
// later one returns ErrStopped. Its storage remains usable for a restart.
func (b *base[C, M]) Stop() {
	b.props.stop()
	b.reads.stop()
	b.host.Stop()
}

// AuditReport snapshots the node's online safety auditor (trivially clean
// when tracing — and with it auditing — is disabled). A C-Raft site's
// auditor watches both consensus layers, a sharded node's every group.
// Safe from any goroutine.
func (b *base[C, M]) AuditReport() AuditReport { return b.aud.Snapshot() }

// read awaits the read submit registers and returns its index, or
// ErrReadFailed when it was not confirmed.
func (b *base[C, M]) read(ctx context.Context, submit func(now time.Duration) uint64) (Index, error) {
	d, err := await(ctx, b.host, &b.reads, func(now time.Duration) (uint64, error) { return submit(now), nil })
	if err != nil {
		return 0, err
	}
	if !d.OK {
		return 0, ErrReadFailed
	}
	return d.Index, nil
}

// waiters turns outcomes keyed by K into finished calls: a call registers
// a channel under its key, the host's dispatcher hands the outcome to it,
// and stop closes every registered channel.
type waiters[K comparable, V any] struct {
	mu      sync.Mutex
	chans   map[K]chan V
	stopped bool
}

// add registers ch under k, or returns ErrStopped once stop has run.
func (w *waiters[K, V]) add(k K, ch chan V) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopped {
		return ErrStopped
	}
	if w.chans == nil {
		w.chans = make(map[K]chan V)
	}
	w.chans[k] = ch
	return nil
}

// take unregisters and returns k's channel (nil if none is registered).
func (w *waiters[K, V]) take(k K) chan V {
	w.mu.Lock()
	ch := w.chans[k]
	delete(w.chans, k)
	w.mu.Unlock()
	return ch
}

// resolve hands v to the call waiting on k, if any.
func (w *waiters[K, V]) resolve(k K, v V) {
	if ch := w.take(k); ch != nil {
		ch <- v
	}
}

// stop fails every waiting call, and every later add, with ErrStopped.
func (w *waiters[K, V]) stop() {
	w.mu.Lock()
	chans := w.chans
	w.chans, w.stopped = nil, true
	w.mu.Unlock()
	for _, ch := range chans {
		close(ch)
	}
}

// await runs submit on h, registers a waiter in w for the key it returns,
// and blocks until the outcome arrives, the node stops or ctx expires. A
// submit that fails returns its error; one that never runs, because the
// host has stopped, returns ErrStopped.
func await[K comparable, V, C any](ctx context.Context, h *runtime.Host[C], w *waiters[K, V], submit func(now time.Duration) (K, error)) (V, error) {
	var zero V
	ch := make(chan V, 1)
	var k K
	err := ErrStopped
	h.Do(func(now time.Duration) {
		if k, err = submit(now); err == nil {
			err = w.add(k, ch)
		}
	})
	if err != nil {
		return zero, err
	}
	select {
	case v, ok := <-ch:
		if !ok {
			return zero, ErrStopped
		}
		return v, nil
	case <-ctx.Done():
		w.take(k)
		return zero, ctx.Err()
	}
}

// Role returns the node's current role (a C-Raft site's in its cluster).
func (n *logNode[C, M]) Role() Role {
	var r Role
	n.host.Do(func(time.Duration) { r = n.m.Role() })
	return r
}

// ProposeAsync submits an entry without waiting; the proposal is re-sent
// until it commits (watch Commits or use Propose to await it).
func (n *logNode[C, M]) ProposeAsync(data []byte) ProposalID {
	var pid ProposalID
	n.host.Do(func(now time.Duration) { pid = n.m.Propose(now, data) })
	return pid
}

// Propose submits an entry and waits for it to commit, returning its log
// index. Note that a retry after a lost acknowledgment can commit twice;
// use OpenSession/Session.Propose for exactly-once semantics.
func (n *logNode[C, M]) Propose(ctx context.Context, data []byte) (Index, error) {
	return await(ctx, n.host, &n.props, func(now time.Duration) (ProposalID, error) {
		return n.m.Propose(now, data), nil
	})
}

// OpenSession registers a new client session and waits for the
// registration to commit. The resulting Session provides exactly-once
// Propose semantics across retries, node restarts and log compaction.
func (n *logNode[C, M]) OpenSession(ctx context.Context) (*Session, error) {
	idx, err := await(ctx, n.host, &n.props, func(now time.Duration) (ProposalID, error) {
		return n.m.OpenSession(now), nil
	})
	if err != nil {
		return nil, err
	}
	return n.AttachSession(SessionID(idx), 0), nil
}

// AttachSession resumes a previously opened session from its persisted ID
// and last used sequence number (e.g. after the client process
// restarted). Attaching does not verify the session still exists; an
// expired session surfaces as ErrSessionExpired on the next Propose.
func (n *logNode[C, M]) AttachSession(id SessionID, lastSeq uint64) *Session {
	return &Session{
		id:  id,
		seq: lastSeq,
		propose: func(ctx context.Context, sid SessionID, seq, ack uint64, data []byte) (Index, error) {
			return await(ctx, n.host, &n.props, func(now time.Duration) (ProposalID, error) {
				return n.m.ProposeSession(now, sid, seq, ack, data), nil
			})
		},
	}
}

// Read performs a linearizable read: it returns a log index such that
// every write acknowledged before Read was called is at or below it, and
// no log entry is written. Read the application state machine after
// applying (consuming Commits) through the returned index. Reads from any
// node are forwarded to the leader and confirmed with a single heartbeat
// round shared by all concurrently pending reads.
func (n *logNode[C, M]) Read(ctx context.Context) (Index, error) {
	return n.ReadWith(ctx, ReadLinearizable)
}

// ReadWith performs a read under an explicit consistency mode (see
// ReadConsistency).
func (n *logNode[C, M]) ReadWith(ctx context.Context, c ReadConsistency) (Index, error) {
	return n.read(ctx, func(now time.Duration) uint64 { return n.m.Read(now, c) })
}

// PeerStatus reports the per-peer replication progress tracked by this
// node (empty unless it currently leads): progress state, match/next,
// srtt/rttvar and inflight bytes.
func (n *logNode[C, M]) PeerStatus() []PeerStatus {
	var s []PeerStatus
	n.host.Do(func(time.Duration) { s = n.m.PeerStatus() })
	return s
}

// Recorder returns the node's flight recorder (nil unless its options'
// Trace was set). Safe from any goroutine.
func (n *logNode[C, M]) Recorder() *TraceRecorder { return n.m.Recorder() }

// debugStatus snapshots the log's consensus view, its leader's peers and
// read lease, then (when set) a node type's own fields via more, all under
// one host lock; traceTail bounds the flight-recorder events included.
func (n *logNode[C, M]) debugStatus(traceTail int, more func(*DebugStatus)) DebugStatus {
	var s DebugStatus
	n.host.Do(func(time.Duration) {
		s = statusRow(n.m)
		s.Peers = debugPeers(n.m.PeerStatus())
		if lu := n.m.LeaseUntil(); lu > 0 {
			s.LeaseUntil = lu.String()
		}
		if more != nil {
			more(&s)
		}
	})
	if traceTail > 0 {
		s.Trace = n.m.Recorder().Tail(traceTail)
	}
	return s
}
