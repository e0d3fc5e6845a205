package hraft

import (
	"context"
	"errors"
	"time"

	"github.com/hraft-io/hraft/internal/replica"
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

// ReadGlobal escalates to the global ring: it linearizes the read against
// the global batch log (ReadIndex among the cluster leaders) and resolves
// once this site has replayed the confirmed global index, returning that
// global-log index. It must be called on a site that currently leads its
// cluster (ErrReadFailed otherwise); use it when the local replay
// position must be confirmed against the ring.
func (n *CRaftNode) ReadGlobal(ctx context.Context) (Index, error) {
	return n.read(ctx, func(now time.Duration) uint64 { return n.m.ReadGlobal(now, ReadLinearizable) })
}

// GlobalPeerStatus reports the global instance's per-peer replication
// progress (empty unless this site leads the global ring).
func (n *CRaftNode) GlobalPeerStatus() []PeerStatus {
	var s []PeerStatus
	n.host.Do(func(time.Duration) { s = n.m.GlobalPeerStatus() })
	return s
}
