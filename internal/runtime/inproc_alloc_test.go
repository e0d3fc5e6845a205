// The race detector's instrumentation changes allocation counts; CI runs
// this ceiling in its uninstrumented go test step.

//go:build !race

package runtime

import (
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

// TestInProcDelayedSendAllocs is the allocation ceiling of the in-process
// delay line: once warm, a delayed send and its delivery allocate nothing —
// no timer, closure or message copy per envelope. The message is boxed
// once, outside the loop, as its sender's core would have done.
func TestInProcDelayedSendAllocs(t *testing.T) {
	net := NewInProcNetwork(1)
	defer net.Close()
	net.Latency = func(from, to types.NodeID) time.Duration { return 50 * time.Microsecond }
	a := net.Endpoint("a")
	got := make(chan struct{}, 1)
	net.Endpoint("b").SetHandler(func(types.Envelope) { got <- struct{}{} })
	env := types.Envelope{From: "a", To: "b", Layer: types.LayerLocal,
		Msg: types.Message(types.CommitNotify{Index: 1})}
	roundTrip := func() {
		if err := a.Send(env); err != nil {
			t.Fatal(err)
		}
		<-got
	}
	for i := 0; i < 20; i++ {
		roundTrip() // warm the timer, the heap and the per-link map
	}
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs > 0 {
		t.Fatalf("delayed send plus delivery: %.2f allocations, want 0", allocs)
	}
}
