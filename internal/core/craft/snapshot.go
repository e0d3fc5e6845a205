package craft

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"github.com/hraft-io/hraft/internal/types"
)

// errBadReplayState reports a replay-state image that fails to decode.
var errBadReplayState = errors.New("craft: bad replay state image")

// Local-log compaction support.
//
// The local log doubles as the cluster's record of inter-cluster consensus:
// committed GlobalState deltas are how a successor leader rebuilds the
// global instance, and committed application entries feed batching. Naive
// compaction would therefore destroy exactly the state C-Raft recovers
// from. The craftSnapshotter closes the gap: the "application state" of the
// local Fast Raft instance is the C-Raft node's replayed global state
// (term, vote, commit index, global log), its delta-replay cursor, and its
// batching position (batch records plus the unbatched tail of locally
// committed application entries). Compacting the local log after
// snapshotting this state loses nothing: a restarted or lagging site
// restores the replay exactly as if it had consumed every compacted delta.
//
// The embedding application's own state is captured through
// Config.AppSnapshotter, appended as a final section of the image. With an
// AppSnapshotter the node only compacts once the application has applied
// everything the replay state covers, so the two sections always describe
// the same point in the local log.

// errAppLagging makes maybeCompact skip a compaction round until the
// embedding application catches up with the replay state.
var errAppLagging = errors.New("craft: application applier behind replay state")

// craftSnapshotter adapts a craft Node to types.Snapshotter for its local
// Fast Raft instance.
type craftSnapshotter struct{ n *Node }

// Snapshot implements types.Snapshotter: serialize the replayed global
// state as of the entries drained so far, plus the embedding application's
// state when an AppSnapshotter is configured.
func (s craftSnapshotter) Snapshot() ([]byte, types.Index, error) {
	var appData []byte
	if app := s.n.cfg.AppSnapshotter; app != nil {
		d, applied, err := app.Snapshot()
		if err != nil {
			return nil, 0, err
		}
		if applied < s.n.appliedLocal {
			// The application has not yet applied every local commit the
			// replay state covers; compacting now would snapshot the two
			// at different points. Retry at a later tick.
			return nil, 0, errAppLagging
		}
		appData = d
	}
	return s.n.encodeReplayState(appData), s.n.appliedLocal, nil
}

// Restore implements types.Snapshotter.
func (s craftSnapshotter) Restore(snap types.Snapshot) error {
	appData, err := s.n.decodeReplayState(snap.Data)
	if err != nil {
		return fmt.Errorf("craft %s: decode replay state: %w", s.n.cfg.ID, err)
	}
	if snap.Meta.LastIndex > s.n.appliedLocal {
		s.n.appliedLocal = snap.Meta.LastIndex
	}
	// appData is nil only when the image predates the app section (an
	// empty-but-present app image decodes as a non-nil empty slice); do
	// not wipe the application's state with a snapshot that never
	// captured it.
	if app := s.n.cfg.AppSnapshotter; app != nil && appData != nil {
		appSnap := snap.Clone()
		appSnap.Data = appData
		if err := app.Restore(appSnap); err != nil {
			return fmt.Errorf("craft %s: restore application state: %w", s.n.cfg.ID, err)
		}
	}
	return nil
}

// encodeReplayState serializes everything drainLocal/applyDelta has
// accumulated. Layout (all varints unless noted):
//
//	gTerm gVote gCommit replayEra replaySeq nextBatchSeq appliedLocal
//	#gLog { entry }...
//	#replayBuf { len-prefixed encoded delta }...
//	#ourBatches { entry items }...
//	#unbatched { pid data }...  (the appLog tail past batchedItems)
//	appData                     (the AppSnapshotter image; empty if none)
func (n *Node) encodeReplayState(appData []byte) []byte {
	var w byteWriter
	w.u64(uint64(n.gTerm))
	w.str(string(n.gVote))
	w.u64(uint64(n.gCommit))
	w.u64(n.replayEra)
	w.u64(n.replaySeq)
	w.u64(n.nextBatchSeq)
	w.u64(uint64(n.appliedLocal))

	idxs := make([]types.Index, 0, len(n.gLog))
	for idx := range n.gLog {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	w.u64(uint64(len(idxs)))
	for _, idx := range idxs {
		w.bytes(types.AppendEntryTo(nil, n.gLog[idx]))
	}

	seqs := make([]uint64, 0, len(n.replayBuf))
	for seq := range n.replayBuf {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	w.u64(uint64(len(seqs)))
	for _, seq := range seqs {
		w.u64(seq)
		w.bytes(types.EncodeGlobalStateDelta(n.replayBuf[seq]))
	}

	bseqs := make([]uint64, 0, len(n.ourBatches))
	for seq := range n.ourBatches {
		bseqs = append(bseqs, seq)
	}
	sort.Slice(bseqs, func(i, j int) bool { return bseqs[i] < bseqs[j] })
	w.u64(uint64(len(bseqs)))
	for _, seq := range bseqs {
		rec := n.ourBatches[seq]
		w.u64(seq)
		w.bytes(types.AppendEntryTo(nil, rec.entry))
		w.u64(uint64(rec.items))
	}

	tail := n.appLog[n.batchedItems:]
	w.u64(uint64(len(tail)))
	for _, it := range tail {
		w.str(string(it.PID.Proposer))
		w.u64(it.PID.Seq)
		w.bytes(it.Data)
	}
	w.bytes(appData)
	return w.buf
}

// decodeReplayState rebuilds the replay and batching state from a snapshot
// produced by encodeReplayState, replacing whatever was accumulated so far,
// and returns the embedded AppSnapshotter image (nil if none).
func (n *Node) decodeReplayState(data []byte) ([]byte, error) {
	r := byteReader{buf: data}
	gTerm := types.Term(r.u64())
	gVote := types.NodeID(r.str())
	gCommit := types.Index(r.u64())
	replayEra := r.u64()
	replaySeq := r.u64()
	nextBatchSeq := r.u64()
	applied := types.Index(r.u64())

	nLog := r.count()
	gLog := make(map[types.Index]types.Entry, nLog)
	for i := uint64(0); i < nLog && r.err == nil; i++ {
		e, err := types.DecodeEntry(r.bytes())
		if err != nil {
			return nil, err
		}
		gLog[e.Index] = e
	}

	nBuf := r.count()
	replayBuf := make(map[uint64]types.GlobalStateDelta, nBuf)
	for i := uint64(0); i < nBuf && r.err == nil; i++ {
		seq := r.u64()
		d, err := types.DecodeGlobalStateDelta(r.bytes())
		if err != nil {
			return nil, err
		}
		replayBuf[seq] = d
	}

	nBatches := r.count()
	ourBatches := make(map[uint64]batchRecord, nBatches)
	for i := uint64(0); i < nBatches && r.err == nil; i++ {
		seq := r.u64()
		e, err := types.DecodeEntry(r.bytes())
		if err != nil {
			return nil, err
		}
		items := r.u64()
		if items > uint64(len(data)) {
			// An item count beyond the whole image is corrupt (and would
			// overflow int on cast).
			return nil, errBadReplayState
		}
		ourBatches[seq] = batchRecord{entry: e, items: int(items)}
	}

	nTail := r.count()
	tail := make([]types.BatchItem, 0, nTail)
	for i := uint64(0); i < nTail && r.err == nil; i++ {
		var it types.BatchItem
		it.PID.Proposer = types.NodeID(r.str())
		it.PID.Seq = r.u64()
		it.Data = r.bytes()
		tail = append(tail, it)
	}
	// Images written before the AppSnapshotter section end here.
	var appData []byte
	if r.err == nil && r.off < len(r.buf) {
		appData = r.bytes()
	}
	if r.err != nil {
		return nil, r.err
	}

	n.gTerm, n.gVote, n.gCommit = gTerm, gVote, gCommit
	n.replayEra, n.replaySeq = replayEra, replaySeq
	n.replayBuf = replayBuf
	n.gLog = gLog
	n.ourBatches = ourBatches
	n.nextBatchSeq = nextBatchSeq
	// The snapshot stores only the unbatched tail; everything before it is
	// covered by the recorded batches.
	n.appLog = tail
	n.batchedItems = 0
	n.appliedLocal = applied
	n.oldestWait = 0
	return appData, nil
}

// byteWriter/byteReader are a minimal varint codec for the replay-state
// image (the wire codec in types is deliberately unexported).
type byteWriter struct{ buf []byte }

func (w *byteWriter) u64(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

func (w *byteWriter) bytes(b []byte) {
	w.u64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *byteWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

type byteReader struct {
	buf []byte
	off int
	err error
}

func (r *byteReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = errBadReplayState
		return 0
	}
	r.off += n
	return v
}

// count reads an element count, rejecting values that cannot fit in the
// remaining buffer (every element is at least one byte): a corrupt or
// hostile image must error out, not panic allocating a huge slice.
func (r *byteReader) count() uint64 {
	v := r.u64()
	if r.err == nil && v > uint64(len(r.buf)-r.off) {
		r.err = errBadReplayState
		return 0
	}
	return v
}

func (r *byteReader) bytes() []byte {
	n := r.u64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.err = errBadReplayState
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:r.off+int(n)])
	r.off += int(n)
	return out
}

func (r *byteReader) str() string { return string(r.bytes()) }
