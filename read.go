package hraft

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/hraft-io/hraft/internal/replica"
	"github.com/hraft-io/hraft/internal/runtime"
	"github.com/hraft-io/hraft/internal/types"
)

// ReadConsistency selects how strongly a Read is ordered against writes:
// ReadLinearizable (quorum-confirmed ReadIndex), ReadLeaseBased
// (clock-free within the leader lease, falling back to ReadIndex),
// ReadStale (local commit index, no confirmation) or ReadFollowerLocal
// (leader-confirmed index, served from the receiving node's state).
type ReadConsistency = types.ReadConsistency

// Read consistency modes.
const (
	// ReadLinearizable confirms leadership with one heartbeat round before
	// releasing the read (no log write, one quorum round — shared by every
	// read registered in the same round).
	ReadLinearizable = types.ReadLinearizable
	// ReadLeaseBased serves reads instantly while the leader lease —
	// derated below the minimum election timeout by observed RTTs — is
	// valid; zero log appends and zero extra quorum rounds inside the
	// window.
	ReadLeaseBased = types.ReadLeaseBased
	// ReadStale answers immediately from whichever node got the read.
	ReadStale = types.ReadStale
	// ReadFollowerLocal is linearizable like ReadLinearizable but served by
	// the node that received the read: it obtains a quorum-confirmed index
	// from the leader, then resolves once its OWN commit index covers that
	// index — apply through the returned index and answer from local state.
	// The confirmation round is the same, but the read's data never crosses
	// to the leader, so bulky scans spread across followers.
	ReadFollowerLocal = types.ReadFollowerLocal
)

// PeerStatus is a snapshot of one peer's replication progress as tracked
// by the leader: state (probe/replicate/snapshot), match/next indices,
// smoothed RTT estimates and in-flight window occupancy.
type PeerStatus = replica.PeerStatus

// ErrReadFailed is returned when a read could not be confirmed — the
// serving leader was deposed mid-read, or (for CRaftNode.ReadGlobal) the
// site does not run the cluster's global instance. Retry, or route the
// read to the current leader.
var ErrReadFailed = errors.New("hraft: read not confirmed; retry against the current leader")

// readOutcome is a resolved read as delivered to a waiter.
type readOutcome struct {
	index Index
	ok    bool
}

// readWaiters is the per-wrapper bookkeeping that turns read resolutions
// into completed Read calls, mirroring proposalWaiters.
type readWaiters struct {
	mu      sync.Mutex
	waiters map[uint64]chan readOutcome
	stopped bool
}

func newReadWaiters() readWaiters {
	return readWaiters{waiters: make(map[uint64]chan readOutcome)}
}

// resolveRead completes a waiting read (wired as the host's OnReadDone).
func (w *readWaiters) resolveRead(d types.ReadDone) {
	w.mu.Lock()
	ch, ok := w.waiters[d.ID]
	if ok {
		delete(w.waiters, d.ID)
	}
	w.mu.Unlock()
	if ok {
		ch <- readOutcome{index: d.Index, ok: d.OK}
	}
}

// markReadsStopped makes subsequent awaits fail fast with ErrStopped.
func (w *readWaiters) markReadsStopped() {
	w.mu.Lock()
	w.stopped = true
	w.mu.Unlock()
}

// awaitRead runs submit on the host, registers a waiter for the returned
// read token and blocks until it resolves or ctx expires.
func (w *readWaiters) awaitRead(ctx context.Context, host *runtime.Host, submit func(now time.Duration) uint64) (Index, error) {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return 0, ErrStopped
	}
	w.mu.Unlock()
	ch := make(chan readOutcome, 1)
	var id uint64
	host.Do(func(now time.Duration, _ runtime.Machine) {
		id = submit(now)
		w.mu.Lock()
		w.waiters[id] = ch
		w.mu.Unlock()
	})
	select {
	case out := <-ch:
		if !out.ok {
			return 0, ErrReadFailed
		}
		return out.index, nil
	case <-ctx.Done():
		w.mu.Lock()
		delete(w.waiters, id)
		w.mu.Unlock()
		return 0, ctx.Err()
	}
}

// --- Node and RaftNode (one Fast Raft core) ----------------------------------

// Read performs a linearizable read: it returns a log index such that
// every write acknowledged before Read was called is at or below it, and
// no log entry is written. Read the application state machine after
// applying (consuming Commits) through the returned index. Reads from any
// node are forwarded to the leader and confirmed with a single heartbeat
// round shared by all concurrently pending reads.
func (n *site) Read(ctx context.Context) (Index, error) {
	return n.ReadWith(ctx, ReadLinearizable)
}

// ReadWith performs a read under an explicit consistency mode (see
// ReadConsistency).
func (n *site) ReadWith(ctx context.Context, c ReadConsistency) (Index, error) {
	return n.awaitRead(ctx, n.host, func(now time.Duration) uint64 {
		return n.fr.Read(now, c)
	})
}

// PeerStatus reports the per-peer replication progress tracked by this
// node (empty unless it currently leads): progress state, match/next,
// srtt/rttvar and inflight bytes.
func (n *site) PeerStatus() []PeerStatus {
	var s []PeerStatus
	n.host.Do(func(_ time.Duration, _ runtime.Machine) { s = n.fr.PeerStatus() })
	return s
}

// --- CRaftNode (hierarchical) -----------------------------------------------

// Read performs a site-local linearizable read: it is served by the
// cluster's local Fast Raft leader and returns a local-log index, without
// ever crossing a cluster boundary — local reads stay independent of
// cross-site RTT. Writes acknowledged by Propose commit locally first, so
// a local read observes every acknowledged write of this cluster.
func (n *CRaftNode) Read(ctx context.Context) (Index, error) {
	return n.ReadWith(ctx, ReadLinearizable)
}

// ReadWith performs a site-local read under an explicit consistency mode.
func (n *CRaftNode) ReadWith(ctx context.Context, c ReadConsistency) (Index, error) {
	return n.awaitRead(ctx, n.host, func(now time.Duration) uint64 {
		return n.cn.Read(now, c)
	})
}

// ReadGlobal escalates to the global ring: it linearizes the read against
// the global batch log (ReadIndex among the cluster leaders) and resolves
// once this site has replayed the confirmed global index, returning that
// global-log index. It must be called on a site that currently leads its
// cluster (ErrReadFailed otherwise); use it when the local replay
// position must be confirmed against the ring.
func (n *CRaftNode) ReadGlobal(ctx context.Context) (Index, error) {
	return n.awaitRead(ctx, n.host, func(now time.Duration) uint64 {
		return n.cn.ReadGlobal(now, ReadLinearizable)
	})
}

// PeerStatus reports the local instance's per-peer replication progress
// (empty unless this site leads its cluster).
func (n *CRaftNode) PeerStatus() []PeerStatus {
	var s []PeerStatus
	n.host.Do(func(_ time.Duration, _ runtime.Machine) { s = n.cn.PeerStatus() })
	return s
}

// GlobalPeerStatus reports the global instance's per-peer replication
// progress (empty unless this site leads the global ring).
func (n *CRaftNode) GlobalPeerStatus() []PeerStatus {
	var s []PeerStatus
	n.host.Do(func(_ time.Duration, _ runtime.Machine) { s = n.cn.GlobalPeerStatus() })
	return s
}
