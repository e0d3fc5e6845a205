package runtime

import (
	"sync"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

// numbered is envelope i from a sender: CommitNotify.Index carries i.
func numbered(from, to types.NodeID, i int) types.Envelope {
	return types.Envelope{From: from, To: to, Layer: types.LayerLocal,
		Msg: types.CommitNotify{Index: types.Index(i)}}
}

// arrivals records what an endpoint's handler saw, in delivery order.
type arrivals struct {
	mu   sync.Mutex
	got  []types.Envelope
	at   []time.Time
	more chan struct{}
}

func newArrivals() *arrivals { return &arrivals{more: make(chan struct{}, 1)} }

func (a *arrivals) handle(env types.Envelope) {
	a.mu.Lock()
	a.got = append(a.got, env)
	a.at = append(a.at, time.Now())
	a.mu.Unlock()
	select {
	case a.more <- struct{}{}:
	default:
	}
}

// wait blocks until n envelopes arrived, failing after a deadline.
func (a *arrivals) wait(t *testing.T, n int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		a.mu.Lock()
		have := len(a.got)
		a.mu.Unlock()
		if have >= n {
			return
		}
		select {
		case <-a.more:
		case <-deadline:
			t.Fatalf("%d of %d envelopes arrived", have, n)
		}
	}
}

func (a *arrivals) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.got)
}

// TestInProcNetworkPerLinkFIFO feeds one endpoint from a 0.3 ms and a 25 ms
// link at once, and from a third link whose delay varies per message: each
// link delivers in send order, and every envelope arrives.
func TestInProcNetworkPerLinkFIFO(t *testing.T) {
	net := NewInProcNetwork(1)
	defer net.Close()
	var mu sync.Mutex
	jitter := 0
	net.Latency = func(from, to types.NodeID) time.Duration {
		switch from {
		case "near":
			return 300 * time.Microsecond
		case "far":
			return 25 * time.Millisecond
		}
		mu.Lock()
		defer mu.Unlock()
		jitter++
		return time.Duration(jitter%3) * 4 * time.Millisecond // 4, 8, 0, 4, ...
	}
	links := []types.NodeID{"near", "far", "jitter"}
	eps := map[types.NodeID]Transport{}
	for _, id := range links {
		eps[id] = net.Endpoint(id)
	}
	arr := newArrivals()
	net.Endpoint("dst").SetHandler(arr.handle)
	const perLink = 60
	for i := 0; i < perLink; i++ {
		for _, id := range links {
			if err := eps[id].Send(numbered(id, "dst", i)); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 0 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	arr.wait(t, perLink*len(links))
	next := map[types.NodeID]types.Index{}
	for _, env := range arr.got {
		i := env.Msg.(types.CommitNotify).Index
		if i != next[env.From] {
			t.Fatalf("link %s delivered %d, want %d next", env.From, i, next[env.From])
		}
		next[env.From]++
	}
}

// TestInProcNetworkNoEarlyDelivery checks no envelope arrives before its
// send instant plus the link's Latency.
func TestInProcNetworkNoEarlyDelivery(t *testing.T) {
	net := NewInProcNetwork(1)
	defer net.Close()
	const delay = 3 * time.Millisecond
	net.Latency = func(from, to types.NodeID) time.Duration { return delay }
	a := net.Endpoint("a")
	arr := newArrivals()
	net.Endpoint("b").SetHandler(arr.handle)
	const n = 30
	sent := make([]time.Time, n)
	for i := 0; i < n; i++ {
		sent[i] = time.Now()
		if err := a.Send(numbered("a", "b", i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(i%4) * 500 * time.Microsecond)
	}
	arr.wait(t, n)
	for k, env := range arr.got {
		i := env.Msg.(types.CommitNotify).Index
		if early := sent[i].Add(delay).Sub(arr.at[k]); early > 0 {
			t.Fatalf("envelope %d arrived %s before send + Latency", i, early)
		}
	}
}

// TestInProcNetworkCloseDropsInFlight sends delayed envelopes and then
// detaches the destination, or closes the network: none of them is
// delivered, neither to the old endpoint nor to one re-created under the
// same ID.
func TestInProcNetworkCloseDropsInFlight(t *testing.T) {
	const delay = 20 * time.Millisecond
	for _, how := range []string{"detach", "close"} {
		t.Run(how, func(t *testing.T) {
			net := NewInProcNetwork(1)
			defer net.Close()
			net.Latency = func(from, to types.NodeID) time.Duration { return delay }
			a := net.Endpoint("a")
			old := newArrivals()
			net.Endpoint("b").SetHandler(old.handle)
			for i := 0; i < 10; i++ {
				if err := a.Send(numbered("a", "b", i)); err != nil {
					t.Fatal(err)
				}
			}
			if how == "detach" {
				net.Detach("b")
			} else {
				net.Close()
			}
			fresh := newArrivals()
			net.Endpoint("b").SetHandler(fresh.handle)
			time.Sleep(3 * delay)
			if n := old.count() + fresh.count(); n != 0 {
				t.Fatalf("%d in-flight envelopes delivered after %s", n, how)
			}
		})
	}
}

// TestInProcNetworkLossIsSeeded checks LossProb draws the same sequence
// for the same seed: two networks built alike drop the same envelopes.
func TestInProcNetworkLossIsSeeded(t *testing.T) {
	const total = 400
	delivered := func(seed int64) map[types.Index]bool {
		net := NewInProcNetwork(seed)
		defer net.Close()
		net.LossProb = 0.3
		a := net.Endpoint("a")
		arr := newArrivals()
		net.Endpoint("b").SetHandler(arr.handle)
		for i := 0; i < total; i++ {
			if err := a.Send(numbered("a", "b", i)); err != nil {
				t.Fatal(err)
			}
		}
		// A lossless marker, behind everything else on the link, shows the
		// others have all been delivered or dropped.
		net.LossProb = 0
		if err := a.Send(numbered("a", "b", total)); err != nil {
			t.Fatal(err)
		}
		seen := map[types.Index]bool{}
		for !seen[total] {
			arr.wait(t, len(seen)+1)
			arr.mu.Lock()
			for _, env := range arr.got {
				seen[env.Msg.(types.CommitNotify).Index] = true
			}
			arr.mu.Unlock()
		}
		delete(seen, total)
		return seen
	}
	first, second := delivered(42), delivered(42)
	if len(first) < total/2 || len(first) > total*9/10 {
		t.Fatalf("%d of %d delivered at LossProb 0.3", len(first), total)
	}
	if len(first) != len(second) {
		t.Fatalf("same seed, %d then %d delivered", len(first), len(second))
	}
	for i := range first {
		if !second[i] {
			t.Fatalf("same seed: envelope %d delivered once, dropped once", i)
		}
	}
}
