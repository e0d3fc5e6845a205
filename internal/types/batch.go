package types

import "fmt"

// BatchItem is one locally committed application entry carried inside a
// C-Raft global-log batch.
type BatchItem struct {
	// PID is the original proposal's ID.
	PID ProposalID
	// Data is the application payload.
	Data []byte
	// Trace is the item's sampled trace context (0 = unsampled), carried
	// from the local entry so replay on every site can record the
	// batch→global-order→replay hops against the origin's trace.
	Trace uint64
}

// Batch is the payload of a KindBatch global-log entry: a run of locally
// committed entries from one cluster, in local-log order.
type Batch struct {
	// Cluster is the originating cluster.
	Cluster NodeID
	// Seq numbers the batch within its cluster (1-based, contiguous).
	Seq uint64
	// Items are the batched application entries.
	Items []BatchItem
}

// Len returns the number of application entries in the batch.
func (b Batch) Len() int { return len(b.Items) }

// String summarizes the batch.
func (b Batch) String() string {
	return fmt.Sprintf("batch{%s #%d n=%d}", b.Cluster, b.Seq, len(b.Items))
}

// EncodeBatch serializes a batch for embedding in an Entry's Data. Trace
// contexts of sampled items ride in a trailing (item index, trace ID)
// section, present only when at least one item is sampled: unsampled
// batches encode byte-identically to the pre-trace layout, and decoders
// of old payloads (global logs persisted before the section existed) see
// an empty tail.
func EncodeBatch(b Batch) []byte {
	var w writer
	w.str(string(b.Cluster))
	w.u64(b.Seq)
	w.u64(uint64(len(b.Items)))
	for _, it := range b.Items {
		w.str(string(it.PID.Proposer))
		w.u64(it.PID.Seq)
		w.bytes(it.Data)
	}
	for i, it := range b.Items {
		if it.Trace != 0 {
			w.u64(uint64(i))
			w.u64(it.Trace)
		}
	}
	return w.buf
}

// DecodeBatch parses a batch previously produced by EncodeBatch. Item
// payloads share data, which is read-only like every entry payload.
func DecodeBatch(data []byte) (Batch, error) {
	r := reader{buf: data, owned: true}
	var b Batch
	b.Cluster = NodeID(r.str())
	b.Seq = r.u64()
	n := r.u64()
	if r.err == nil && n > uint64(len(data)) {
		return Batch{}, fmt.Errorf("types: batch item count %d exceeds payload", n)
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		var it BatchItem
		it.PID.Proposer = NodeID(r.str())
		it.PID.Seq = r.u64()
		it.Data = r.bytes()
		b.Items = append(b.Items, it)
	}
	// Trailing trace section (absent in pre-trace payloads).
	for r.err == nil && r.off < len(data) {
		i := r.u64()
		tid := r.u64()
		if r.err == nil {
			if i >= uint64(len(b.Items)) {
				return Batch{}, fmt.Errorf("types: batch trace index %d out of range", i)
			}
			b.Items[i].Trace = tid
		}
	}
	if r.err != nil {
		return Batch{}, fmt.Errorf("types: decode batch: %w", r.err)
	}
	return b, nil
}

// BatchHeader reads a batch payload's cluster, sequence and item count
// without decoding its items. It walks the whole payload as DecodeBatch
// does and fails on exactly the inputs DecodeBatch rejects, but allocates
// nothing on success; cluster aliases data (compare it as
// string(cluster) == string(id), which does not allocate either).
func BatchHeader(data []byte) (cluster []byte, seq uint64, items int, err error) {
	r := reader{buf: data, owned: true}
	cluster = r.field()
	seq = r.u64()
	n := r.u64()
	if r.err == nil && n > uint64(len(data)) {
		return nil, 0, 0, fmt.Errorf("types: batch item count %d exceeds payload", n)
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		r.field()
		r.u64()
		r.field()
	}
	for r.err == nil && r.off < len(data) {
		i := r.u64()
		r.u64()
		if r.err == nil && i >= n {
			return nil, 0, 0, fmt.Errorf("types: batch trace index %d out of range", i)
		}
	}
	if r.err != nil {
		return nil, 0, 0, fmt.Errorf("types: decode batch: %w", r.err)
	}
	return cluster, seq, int(n), nil
}

// GlobalStateDelta is the payload of a KindGlobalState local-log entry. It
// replicates, through intra-cluster consensus, every externally visible
// change a cluster leader made to its inter-cluster (global) Fast Raft
// state, so a successor local leader can resume the cluster's role.
type GlobalStateDelta struct {
	// Era identifies the local leadership under which the delta was
	// produced (the proposing local leader's local term). Deltas from an
	// era older than the latest applied era are ignored during replay:
	// their changes were never externalized, because a demoted or dead
	// local leader never releases messages.
	Era uint64
	// Seq orders deltas within an era (1-based, contiguous). Local
	// consensus may commit deltas out of proposal order when proposal
	// slots are contended; replay buffers and applies them in Seq order.
	Seq uint64
	// Term is the global instance's current term after the step.
	Term Term
	// VotedFor is the global instance's votedFor after the step.
	VotedFor NodeID
	// CommitIndex is the global instance's commit index after the step.
	CommitIndex Index
	// Entries are global-log entries inserted or overwritten by the step,
	// with their indices and approval markers.
	Entries []Entry
}

// EncodeGlobalStateDelta serializes a delta for embedding in an Entry.
func EncodeGlobalStateDelta(d GlobalStateDelta) []byte {
	var w writer
	w.u64(d.Era)
	w.u64(d.Seq)
	w.u64(uint64(d.Term))
	w.str(string(d.VotedFor))
	w.u64(uint64(d.CommitIndex))
	w.u64(uint64(len(d.Entries)))
	for i := range d.Entries {
		w.entry(d.Entries[i])
	}
	return w.buf
}

// DecodeGlobalStateDelta parses a delta produced by EncodeGlobalStateDelta.
// Entry payloads share data, which is read-only like every entry payload.
func DecodeGlobalStateDelta(data []byte) (GlobalStateDelta, error) {
	r := reader{buf: data, owned: true}
	var d GlobalStateDelta
	d.Era = r.u64()
	d.Seq = r.u64()
	d.Term = Term(r.u64())
	d.VotedFor = NodeID(r.str())
	d.CommitIndex = Index(r.u64())
	n := r.u64()
	if r.err == nil && n > uint64(len(data)) {
		return GlobalStateDelta{}, fmt.Errorf("types: delta entry count %d exceeds payload", n)
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		d.Entries = append(d.Entries, r.entry())
	}
	if r.err != nil {
		return GlobalStateDelta{}, fmt.Errorf("types: decode global state delta: %w", r.err)
	}
	return d, nil
}
