package fastraft

import (
	"bytes"
	"fmt"

	"github.com/hraft-io/hraft/internal/replica"
	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// --- Snapshotting & log compaction -----------------------------------------
//
// Every site — leader or follower — compacts its own log once the committed
// prefix beyond the last snapshot exceeds cfg.SnapshotThreshold: the
// application state is captured through cfg.Snapshotter, saved to stable
// storage, and the covered log prefix is dropped. The compaction point never
// exceeds what the application reports as applied, so asynchronous appliers
// are never snapshotted ahead of themselves.
//
// Only committed (hence leader-approved) prefixes are compacted, so the
// self-approved entries Fast Raft's recovery algorithm depends on are never
// discarded.

// maybeCompact snapshots and compacts when the committed suffix beyond the
// snapshot boundary reaches the configured threshold. Called from Tick and
// after commit-advancing steps.
func (n *Node) maybeCompact() {
	t := n.cfg.SnapshotThreshold
	if t <= 0 || n.commitIndex < n.log.SnapshotIndex()+types.Index(t) {
		return
	}
	point := n.commitIndex
	var data []byte
	if n.cfg.Snapshotter != nil {
		d, applied, err := n.cfg.Snapshotter.Snapshot()
		if err != nil {
			return // transient application failure; retry at a later tick
		}
		data = bytes.Clone(d) // the application's buffer: copied once, read-only after
		if applied < point {
			point = applied
		}
	}
	// Gate on the achievable point, not just commitIndex: if the applier
	// trails commit, compacting on every small advance of applied would
	// rotate the WAL per entry instead of per threshold.
	if point < n.log.SnapshotIndex()+types.Index(t) {
		return
	}
	cfg, ci := n.log.ConfigAt(point)
	snap := types.Snapshot{
		Meta: types.SnapshotMeta{
			LastIndex:   point,
			LastTerm:    n.log.Term(point),
			Config:      cfg,
			ConfigIndex: ci,
		},
		Data: data,
		// The session registry as of the boundary rides along, so dedup
		// state survives the compaction it would otherwise be lost to.
		Sessions: n.sessionStateAt(point),
	}
	if err := n.cfg.Storage.SaveSnapshot(snap); err != nil {
		panic(fmt.Sprintf("fastraft %s: save snapshot: %v", n.cfg.ID, err))
	}
	if err := n.log.CompactTo(point, snap.Meta.LastTerm); err != nil {
		panic(fmt.Sprintf("fastraft %s: compact log: %v", n.cfg.ID, err))
	}
	if err := n.cfg.Storage.TruncatePrefix(point); err != nil {
		panic(fmt.Sprintf("fastraft %s: truncate storage prefix: %v", n.cfg.ID, err))
	}
	n.snap = snap
	n.rec.Compact(n.now, point, n.commitIndex)
}

// sendSnapshotTo streams the latest snapshot to a follower whose
// replication position fell below the compacted prefix: whole-image in one
// message when chunking is off, MaxSnapshotChunk-sized chunks otherwise.
// The tracker plans (and suppresses) transmission; false means nothing was
// sent this round (pending install).
func (n *Node) sendSnapshotTo(to types.NodeID) bool {
	enc, check := n.snapEnc.Encode(n.snap)
	msgs := n.progress.SnapshotMessages(to, n.snap, enc, check,
		n.term, n.cfg.ID, n.aeRound, n.now)
	for _, m := range msgs {
		b := m.Boundary
		if b == 0 {
			b = n.snap.Meta.LastIndex
		}
		if m.Offset == 0 {
			if n.rec != nil {
				n.rec.SnapStreamStart(n.now, n.term, to, b)
			}
			// Mint one trace per stream; every chunk and the follower's
			// install share it.
			if tid := n.rec.MintTrace(); tid != 0 && n.snapStreamTrace != nil {
				n.snapStreamTrace[to] = tid
			}
		}
		if n.snapStreamTrace != nil {
			m.Trace = n.snapStreamTrace[to]
		}
		if n.rec != nil {
			n.rec.SnapChunk(n.now, to, b, m.Offset, m.Done)
			n.rec.TraceHop(n.now, m.Trace, trace.HopSnapChunk, to, b)
		}
		if m.Done {
			delete(n.snapStreamTrace, to)
		}
		n.send(to, m)
	}
	return len(msgs) > 0
}

// onInstallSnapshot is the follower side of snapshot transfer: whole
// images install directly; chunks are reassembled and installed on the
// final one, then replication resumes above the boundary. Every message is
// acknowledged with the buffered offset so the leader resumes without
// re-sending acknowledged chunks.
func (n *Node) onInstallSnapshot(from types.NodeID, m types.InstallSnapshot) {
	if m.Term > n.term || (m.Term == n.term && n.role != types.RoleFollower) {
		n.becomeFollower(m.Term, m.LeaderID)
	}
	boundary := m.Boundary
	if boundary == 0 {
		boundary = m.Snapshot.Meta.LastIndex
	}
	resp := types.InstallSnapshotReply{
		Term: n.term, Round: m.Round, LastIndex: n.commitIndex, Boundary: boundary,
	}
	if m.Term < n.term {
		n.send(from, resp)
		return
	}
	n.leaderID = m.LeaderID
	// Chunk streams can be the only leader traffic a catching-up follower
	// sees for a long while; they count as leader contact for election
	// stickiness like any append round.
	n.lastLeaderContact = n.now
	n.lonelyElections = 0
	n.resetElectionTimer()
	if m.Trace != 0 {
		n.installTrace = m.Trace
		n.rec.TraceHop(n.now, m.Trace, trace.HopSnapChunk, from, boundary)
	}
	if boundary <= n.commitIndex {
		// Already have this prefix (duplicate or raced AppendEntries); just
		// tell the leader where we are.
		resp.LastIndex = n.commitIndex
		n.snapRecv.Reset()
		n.send(from, resp)
		return
	}
	var snap types.Snapshot
	if !m.Snapshot.IsZero() {
		// Legacy whole-image transfer.
		snap = m.Snapshot
		n.snapRecv.Reset()
		n.installStart = n.now
	} else {
		n.metrics.Inc(replica.CounterChunksReceived)
		// Restart the install clock when a stream begins — including a new
		// (boundary, check) stream arriving over a stale partial buffer,
		// which would otherwise inherit the dead stream's start time.
		if _, buffered := n.snapRecv.Pending(); buffered == 0 ||
			boundary != n.installBoundary || m.Check != n.installCheck {
			n.installStart = n.now
			n.installBoundary, n.installCheck = boundary, m.Check
		}
		s, complete, ack := n.snapRecv.Offer(boundary, m.Check, m.Offset, m.Data, m.Done)
		resp.Offset = ack
		n.rec.SnapChunkRecv(n.now, from, boundary, ack)
		if !complete {
			n.send(from, resp) // acknowledge buffered progress
			return
		}
		snap = s
	}
	if snap.Meta.LastIndex <= n.commitIndex {
		resp.LastIndex = n.commitIndex
		n.send(from, resp)
		return
	}
	n.installSnapshot(snap)
	// The commit index jumped to the snapshot boundary: held follower-local
	// reads whose confirmed index is now covered can be served.
	n.reads.Flush(n.now)
	n.metrics.Inc(replica.CounterInstalls)
	n.installHist.Observe(n.now - n.installStart)
	n.rec.SnapInstall(n.now, snap.Meta.LastIndex, n.now-n.installStart)
	n.rec.TraceHop(n.now, n.installTrace, trace.HopSnapInstall, from, snap.Meta.LastIndex)
	n.installTrace = 0
	n.installStart = 0
	resp.LastIndex = snap.Meta.LastIndex
	n.send(from, resp)
}

// installSnapshot makes a received snapshot this site's recovery base:
// durable first, then the in-memory log, commit point and state machine.
func (n *Node) installSnapshot(snap types.Snapshot) {
	if err := n.cfg.Storage.SaveSnapshot(snap); err != nil {
		panic(fmt.Sprintf("fastraft %s: save installed snapshot: %v", n.cfg.ID, err))
	}
	if err := n.log.InstallSnapshot(snap.Meta); err != nil {
		panic(fmt.Sprintf("fastraft %s: install snapshot: %v", n.cfg.ID, err))
	}
	if err := n.cfg.Storage.TruncatePrefix(snap.Meta.LastIndex); err != nil {
		panic(fmt.Sprintf("fastraft %s: truncate storage prefix: %v", n.cfg.ID, err))
	}
	n.snap = snap
	n.commitIndex = snap.Meta.LastIndex
	if err := n.sessions.Restore(snap.Sessions); err != nil {
		panic(fmt.Sprintf("fastraft %s: restore sessions: %v", n.cfg.ID, err))
	}
	if n.cfg.Snapshotter != nil {
		if err := n.cfg.Snapshotter.Restore(snap.Clone()); err != nil {
			panic(fmt.Sprintf("fastraft %s: restore state machine: %v", n.cfg.ID, err))
		}
	}
}

// onInstallSnapshotReply advances the leader's view of a follower that
// installed (or already had) a snapshot, or acknowledged chunk progress.
func (n *Node) onInstallSnapshotReply(from types.NodeID, m types.InstallSnapshotReply) {
	if m.Term > n.term {
		n.becomeFollower(m.Term, types.None)
		return
	}
	if n.role != types.RoleLeader || m.Term < n.term {
		return
	}
	n.responded[from] = true
	n.missed[from] = 0
	done := n.progress.AckSnapshot(from, m.Boundary, m.Offset, m.LastIndex, n.now)
	if !done {
		if pr := n.progress.Get(from); pr != nil && pr.State() == replica.StateSnapshot {
			// Acknowledged progress freed window room: keep the chunk
			// pipeline moving between rounds.
			n.sendSnapshotTo(from)
		}
	} else if !n.progress.AnySnapshotStreams() {
		// Last transfer finished; drop the cached encoding.
		n.snapEnc.Release()
	}
}
