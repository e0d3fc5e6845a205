package craft

import (
	"fmt"
	"time"

	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// captureGlobal collects the global instance's outputs after any step or
// tick. If the step changed durable global state, the change is wrapped in
// a GlobalState delta and proposed to local consensus, and every message
// produced so far is held behind that barrier; otherwise messages are
// released as soon as all earlier barriers have committed.
func (n *Node) captureGlobal(now time.Duration) bool {
	if n.global == nil {
		return false
	}
	n.envBuf = n.global.DrainOutbox(n.envBuf[:0])
	n.entryBuf = n.global.DrainChangedEntries(n.entryBuf[:0])
	msgs, changed := n.envBuf, n.entryBuf
	gterm, gvote := n.global.HardState()
	gcommit := n.global.CommitIndex()
	dirty := len(changed) > 0 || gterm != n.lastTerm || gvote != n.lastVote ||
		gcommit != n.lastCommit
	if !dirty && len(msgs) == 0 {
		return false
	}
	if dirty {
		n.deltaSeq++
		n.deltaOrdinal++
		delta := types.GlobalStateDelta{
			Era:         uint64(n.local.Term()),
			Seq:         n.deltaSeq,
			Term:        gterm,
			VotedFor:    gvote,
			CommitIndex: gcommit,
			Entries:     changed,
		}
		n.lastTerm, n.lastVote, n.lastCommit = gterm, gvote, gcommit
		entry := types.Entry{
			Kind: types.KindGlobalState,
			Data: types.EncodeGlobalStateDelta(delta),
		}
		pid := n.local.ProposeEntry(now, entry)
		n.internalPIDs[pid] = struct{}{}
		n.deltaPids[pid] = n.deltaOrdinal
		n.cfg.Recorder.GlobalOrder(now, delta.Era, delta.Seq)
	}
	// Hold the messages behind every delta proposed so far.
	for _, env := range msgs {
		n.held = append(n.held, heldMsg{barrier: n.deltaOrdinal, env: env})
	}
	clear(msgs)
	clear(changed)
	n.releaseHeld()
	return true
}

// releaseHeld flushes held messages whose barrier prefix has committed.
func (n *Node) releaseHeld() {
	for len(n.held) > 0 && n.held[0].barrier <= n.deltaPrefix {
		n.outbox = append(n.outbox, n.held[0].env)
		n.held = n.held[1:]
	}
}

// drainLocal processes the local instance's outputs: forwarding messages,
// recording committed entries, replaying global-state deltas and resolving
// proposals.
//
// A delta the cluster leader commits may externalize a global commit. The
// leader proposed that delta itself, so no CommitNotify tells the other
// sites; they would learn it from the next local heartbeat. Instead the
// leader sends its regular append traffic at once (the next pump drains it).
func (n *Node) drainLocal(now time.Duration) bool {
	outbox := len(n.outbox)
	n.outbox = n.local.DrainOutbox(n.outbox)
	progress := len(n.outbox) > outbox
	gCommit := n.gCommit
	n.entryBuf = n.local.DrainCommitted(n.entryBuf[:0])
	for _, e := range n.entryBuf {
		progress = true
		n.localCommitted = append(n.localCommitted, e)
		if e.Index > n.appliedLocal {
			n.appliedLocal = e.Index
		}
		switch e.Kind {
		case types.KindNormal:
			n.appLog = append(n.appLog, types.BatchItem{PID: e.PID, Data: e.Data, Trace: e.TraceID})
			n.cfg.Recorder.TraceHop(now, e.TraceID, trace.HopBatch, "", e.Index)
			if n.oldestWait == 0 && len(n.appLog) > n.batchedItems {
				n.oldestWait = now
			}
		case types.KindGlobalState:
			n.onDeltaCommitted(e)
		}
	}
	clear(n.entryBuf)
	if n.gCommit > gCommit && n.local.Role() == types.RoleLeader {
		n.local.SendAppends()
		n.metrics.Inc("craft.commit_ships")
	}
	n.resBuf = n.local.DrainResolved(n.resBuf[:0])
	for _, r := range n.resBuf {
		if _, internal := n.internalPIDs[r.PID]; internal {
			delete(n.internalPIDs, r.PID)
			continue
		}
		n.resolved = append(n.resolved, r)
		progress = true
	}
	return progress
}

// onDeltaCommitted handles a GlobalState entry that committed locally: it
// unlocks the live leader's barrier (if this site proposed it) and feeds
// the replayed global state.
func (n *Node) onDeltaCommitted(e types.Entry) {
	if ord, mine := n.deltaPids[e.PID]; mine {
		delete(n.deltaPids, e.PID)
		n.deltaCommitted[ord] = true
		for n.deltaCommitted[n.deltaPrefix+1] {
			delete(n.deltaCommitted, n.deltaPrefix+1)
			n.deltaPrefix++
		}
		n.releaseHeld()
	}
	d, err := types.DecodeGlobalStateDelta(e.Data)
	if err != nil {
		// A locally committed delta that cannot decode is a bug, not a
		// runtime condition.
		panic(fmt.Sprintf("craft %s: corrupt global state delta: %v", n.cfg.ID, err))
	}
	n.bufferReplay(d)
}

// bufferReplay applies deltas in (era, seq) order. Stale-era deltas are
// ignored: a demoted or dead leader never released the messages that
// depended on them, so their changes were never externalized.
func (n *Node) bufferReplay(d types.GlobalStateDelta) {
	if d.Era < n.replayEra {
		return
	}
	if d.Era > n.replayEra {
		n.replayEra = d.Era
		n.replaySeq = 0
		n.replayBuf = make(map[uint64]types.GlobalStateDelta)
	}
	if d.Seq <= n.replaySeq {
		return
	}
	n.replayBuf[d.Seq] = d
	for {
		next, ok := n.replayBuf[n.replaySeq+1]
		if !ok {
			return
		}
		delete(n.replayBuf, n.replaySeq+1)
		n.replaySeq++
		n.applyDelta(next)
		n.cfg.Recorder.Replay(n.now, n.replayEra, n.replaySeq)
	}
}

// applyDelta folds one delta into the replayed global state and emits
// newly committed global entries.
func (n *Node) applyDelta(d types.GlobalStateDelta) {
	n.gTerm, n.gVote = d.Term, d.VotedFor
	for _, ge := range d.Entries {
		n.gLog[ge.Index] = ge
		n.trackBatch(ge)
	}
	if d.CommitIndex > n.gCommit {
		if !n.gsBooted {
			// After a restart the replay re-runs from the restored commit
			// base; the boot epoch tells audit tooling the rewind is a
			// recovery, not a commit-index regression.
			n.gsBooted = true
			n.gsRec.Boot(n.now, n.gTerm, n.gCommit)
		}
		for i := n.gCommit + 1; i <= d.CommitIndex; i++ {
			ge, ok := n.gLog[i]
			if !ok {
				panic(fmt.Sprintf("craft %s: replayed commit %d missing from global log", n.cfg.ID, i))
			}
			n.globalCommitted = append(n.globalCommitted, ge)
			n.gsRec.CommitEntry(n.now, n.gTerm, ge)
			// Sampled batches carry their first traced item's context; the
			// replay hop decodes only such batches (the common, unsampled
			// case skips the decode entirely).
			if ge.TraceID != 0 && ge.Kind == types.KindBatch {
				if b, err := types.DecodeBatch(ge.Data); err == nil {
					for _, it := range b.Items {
						n.cfg.Recorder.TraceHop(n.now, it.Trace, trace.HopReplay, "", i)
					}
				}
			}
		}
		n.gCommit = d.CommitIndex
	}
}

// trackBatch records this cluster's batches seen in the replayed global
// log, which determines batching progress across local leader changes.
// Every site replays every batch, so it reads only the batch's header; the
// items are decoded only for a sampled batch, to trace their hops.
func (n *Node) trackBatch(ge types.Entry) {
	if ge.Kind != types.KindBatch {
		return
	}
	cluster, seq, items, err := types.BatchHeader(ge.Data)
	if err != nil {
		panic(fmt.Sprintf("craft %s: corrupt batch in global log: %v", n.cfg.ID, err))
	}
	if string(cluster) != string(n.cfg.Cluster) {
		return
	}
	if _, seen := n.ourBatches[seq]; !seen {
		n.batchedItems += items
		if seq >= n.nextBatchSeq {
			n.nextBatchSeq = seq + 1
		}
		if ge.TraceID != 0 {
			if b, err := types.DecodeBatch(ge.Data); err == nil {
				for _, it := range b.Items {
					n.cfg.Recorder.TraceHop(n.now, it.Trace, trace.HopGlobalOrder, "", ge.Index)
				}
			}
		}
	}
	n.ourBatches[seq] = batchRecord{entry: ge, items: items}
}

// makeBatches forms new batches from unbatched locally committed entries
// and proposes them to the global level. Only the cluster leader batches;
// batch boundaries are recoverable because every externalized batch is in
// the replayed global log.
//
// Batch flow control: with Config.MaxInflightBatches set, batching pauses
// while that many batch proposals are unresolved at the global level —
// the same inflight-window idea the replica package applies to appends,
// lifted to the batch layer. Locally committed entries simply accumulate
// unbatched (they are already durable and replicated within the cluster)
// and the next resolution re-opens the window.
func (n *Node) makeBatches(now time.Duration) bool {
	if n.global == nil {
		return false
	}
	progress := false
	for len(n.appLog)-n.batchedItems >= n.cfg.BatchSize {
		if !n.canProposeBatch() {
			n.metrics.Inc("craft.batches_throttled")
			return progress
		}
		n.proposeBatch(now, n.cfg.BatchSize)
		progress = true
	}
	if n.cfg.BatchDelay > 0 && n.oldestWait > 0 &&
		now >= n.oldestWait+n.cfg.BatchDelay && len(n.appLog) > n.batchedItems {
		if !n.canProposeBatch() {
			n.metrics.Inc("craft.batches_throttled")
			return progress
		}
		n.proposeBatch(now, len(n.appLog)-n.batchedItems)
		progress = true
	}
	if len(n.appLog) == n.batchedItems {
		n.oldestWait = 0
	}
	return progress
}

// canProposeBatch applies the global-level batch window.
func (n *Node) canProposeBatch() bool {
	cap := n.cfg.MaxInflightBatches
	return cap == 0 || n.global.PendingProposals() < cap
}

func (n *Node) proposeBatch(now time.Duration, size int) {
	if n.nextBatchSeq == 0 {
		n.nextBatchSeq = 1
	}
	seq := n.nextBatchSeq
	n.nextBatchSeq++
	items := make([]types.BatchItem, size)
	copy(items, n.appLog[n.batchedItems:n.batchedItems+size])
	n.batchedItems += size
	b := types.Batch{Cluster: n.cfg.Cluster, Seq: seq, Items: items}
	entry := types.Entry{Kind: types.KindBatch, Data: types.EncodeBatch(b)}
	// The batch entry itself travels under the first traced item's context,
	// so the global-level journey joins that item's tree.
	for _, it := range items {
		if it.Trace != 0 {
			entry.TraceID = it.Trace
			break
		}
	}
	pid := types.ProposalID{Proposer: n.cfg.Cluster, Seq: seq}
	n.ourBatches[seq] = batchRecord{entry: entry, items: size}
	n.global.ProposeEntryPID(now, entry, pid)
	n.cfg.Recorder.BatchPropose(now, pid, size)
	if n.oldestWait != 0 && len(n.appLog) == n.batchedItems {
		n.oldestWait = 0
	}
}
