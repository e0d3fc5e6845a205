// The race detector's instrumentation changes allocation counts; CI runs
// this ceiling in its uninstrumented go test step.

//go:build !race

package craft

import (
	"testing"

	"github.com/hraft-io/hraft/internal/types"
)

// TestForeignBatchReplayAllocs is the allocation ceiling of replaying a
// global-log batch from another cluster: every site replays every batch,
// and one that is not its own cluster's needs only the batch header, which
// is read in place. The ceiling is 0.
func TestForeignBatchReplayAllocs(t *testing.T) {
	n := newReplayNode(t)
	items := make([]types.BatchItem, 10)
	for i := range items {
		items[i] = types.BatchItem{PID: types.ProposalID{Proposer: "s9", Seq: uint64(i + 1)}, Data: []byte("payload")}
	}
	ge := types.Entry{
		Index: 1, Term: 1, Kind: types.KindBatch, Approval: types.ApprovedLeader,
		PID:  types.ProposalID{Proposer: "c2", Seq: 1},
		Data: types.EncodeBatch(types.Batch{Cluster: "c2", Seq: 1, Items: items}),
	}
	d := types.GlobalStateDelta{Era: 1, Seq: 1, Term: 1, Entries: []types.Entry{ge}}
	n.applyDelta(d) // the global log's slot for index 1 exists from here on
	if allocs := testing.AllocsPerRun(200, func() { n.applyDelta(d) }); allocs > 0 {
		t.Fatalf("replaying a foreign batch: %.1f allocations, ceiling 0", allocs)
	}
	if n.batchedItems != 0 || len(n.ourBatches) != 0 {
		t.Fatalf("foreign batch counted as this cluster's: %d items, %d batches", n.batchedItems, len(n.ourBatches))
	}
}
