package craft

import (
	"sort"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

// Linearizable reads at the two C-Raft levels.
//
// A site-local read (Read) consults the local Fast Raft instance's read
// path only: Propose commits intra-cluster first, so a read linearized
// against the local log observes every acknowledged write of this cluster
// without ever crossing a cluster boundary — geo-local reads are
// independent of cross-site RTT, the paper's headline win. A global read
// (ReadGlobal) escalates to the global ring: it runs the ReadIndex
// protocol among the cluster leaders and resolves once this site's
// replayed global position (gCommit) has caught up to the confirmed
// index, confirming the local replay position against the ring.

// globalRead is a globally confirmed read waiting for the local replay to
// reach its index.
type globalRead struct {
	id    uint64
	index types.Index
}

// Read registers a site-local read under the given consistency mode; it
// resolves through DrainReadDone with a local-log linearization index. The
// read is served by the cluster's local Fast Raft leader (forwarded
// intra-cluster when this site follows) and never touches the global
// ring.
func (n *Node) Read(now time.Duration, c types.ReadConsistency) uint64 {
	n.now = now
	n.readSeq++
	id := n.readSeq
	lid := n.local.Read(now, c)
	n.localReadMap[lid] = id
	n.pump(now)
	return id
}

// ReadGlobal registers a read linearized against the global batch log. It
// requires a live global instance — any cluster-leader site qualifies;
// the global read path forwards to the global leader if this cluster does
// not lead the ring — and resolves (OK) once the confirmed global index
// has been replayed locally. On a non-leader site the read fails
// immediately (OK=false): route it to the cluster leader instead.
func (n *Node) ReadGlobal(now time.Duration, c types.ReadConsistency) uint64 {
	n.now = now
	n.readSeq++
	id := n.readSeq
	if n.global == nil {
		n.readDone = append(n.readDone, types.ReadDone{ID: id, OK: false})
		return id
	}
	gid := n.global.Read(now, c)
	n.globalReadMap[gid] = id
	n.pump(now)
	return id
}

// DrainReadDone appends resolved reads (both levels) to dst.
func (n *Node) DrainReadDone(dst []types.ReadDone) []types.ReadDone {
	return types.Drain(dst, &n.readDone)
}

// drainReads translates both instances' read resolutions into craft-level
// ones, gating confirmed global reads on the replayed global commit
// position.
func (n *Node) drainReads() bool {
	progress := false
	n.readBuf = n.local.DrainReadDone(n.readBuf[:0])
	for _, d := range n.readBuf {
		id, ok := n.localReadMap[d.ID]
		if !ok {
			continue
		}
		delete(n.localReadMap, d.ID)
		n.readDone = append(n.readDone, types.ReadDone{ID: id, Index: d.Index, OK: d.OK})
		progress = true
	}
	if n.global != nil {
		n.readBuf = n.global.DrainReadDone(n.readBuf[:0])
		for _, d := range n.readBuf {
			id, ok := n.globalReadMap[d.ID]
			if !ok {
				continue
			}
			delete(n.globalReadMap, d.ID)
			progress = true
			if !d.OK {
				n.readDone = append(n.readDone, types.ReadDone{ID: id, OK: false})
				continue
			}
			// Confirmed against the ring; now wait for our own replay to
			// cover the index so the caller can actually observe it.
			n.globalReadWait = append(n.globalReadWait, globalRead{id: id, index: d.Index})
		}
	}
	if len(n.globalReadWait) > 0 {
		kept := n.globalReadWait[:0]
		for _, g := range n.globalReadWait {
			if g.index <= n.gCommit {
				n.readDone = append(n.readDone, types.ReadDone{ID: g.id, Index: g.index, OK: true})
				progress = true
			} else {
				kept = append(kept, g)
			}
		}
		n.globalReadWait = kept
	}
	return progress
}

// failGlobalReads fails every unconfirmed global read when the global
// instance is torn down (local demotion): the successor leader cannot
// answer reads it never saw. Confirmed reads in globalReadWait survive —
// their indices are committed ring-wide and the replay will reach them.
func (n *Node) failGlobalReads() {
	if len(n.globalReadMap) == 0 {
		return
	}
	ids := make([]uint64, 0, len(n.globalReadMap))
	for _, id := range n.globalReadMap {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n.readDone = append(n.readDone, types.ReadDone{ID: id, OK: false})
	}
	n.globalReadMap = make(map[uint64]uint64)
}
