package simnet

import (
	"math/rand"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(30*time.Millisecond, func() { order = append(order, 3) })
	s.At(10*time.Millisecond, func() { order = append(order, 1) })
	s.At(20*time.Millisecond, func() { order = append(order, 2) })
	// Same-time events run in scheduling order.
	s.At(20*time.Millisecond, func() { order = append(order, 20) })
	s.RunUntil(time.Second)
	want := []int{1, 2, 20, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != time.Second {
		t.Fatalf("Now = %s after RunUntil(1s)", s.Now())
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := s.At(10*time.Millisecond, func() { fired = true })
	if !tm.Cancel() {
		t.Fatal("first cancel should succeed")
	}
	if tm.Cancel() {
		t.Fatal("second cancel should be a no-op")
	}
	s.RunUntil(time.Second)
	if fired {
		t.Fatal("canceled event fired")
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d", s.Pending())
	}
}

func TestSchedulerEventsScheduleEvents(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			s.After(10*time.Millisecond, tick)
		}
	}
	s.After(10*time.Millisecond, tick)
	s.RunUntil(time.Second)
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
	if got := s.Now(); got != time.Second {
		t.Fatalf("now = %s", got)
	}
}

func TestSchedulerRunUntilStopsAtDeadline(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.At(500*time.Millisecond, func() { fired = true })
	s.RunUntil(100 * time.Millisecond)
	if fired {
		t.Fatal("future event fired early")
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d", s.Pending())
	}
	s.RunUntil(time.Second)
	if !fired {
		t.Fatal("event never fired")
	}
}

func TestTopologyLatencies(t *testing.T) {
	topo := AWSTopology()
	topo.SetRegion("a", "us-east-1")
	topo.SetRegion("b", "us-east-1")
	topo.SetRegion("c", "eu-west-1")
	if rtt := topo.RTT("a", "b"); rtt != topo.IntraRTT {
		t.Fatalf("intra RTT = %s", rtt)
	}
	if rtt := topo.RTT("a", "c"); rtt != 75*time.Millisecond {
		t.Fatalf("us-east/eu-west RTT = %s", rtt)
	}
	if rtt := topo.RTT("c", "a"); rtt != 75*time.Millisecond {
		t.Fatalf("RTT not symmetric: %s", rtt)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		lat := topo.Latency("a", "c", rng)
		base := 75 * time.Millisecond / 2
		lo := time.Duration(float64(base) * 0.89)
		hi := time.Duration(float64(base) * 1.11)
		if lat < lo || lat > hi {
			t.Fatalf("latency %s outside jitter band [%s, %s]", lat, lo, hi)
		}
	}
	// All modeled region pairs stay within the paper's 10–300 ms band.
	regions := AWSRegions()
	for i, a := range regions {
		for _, b := range regions[i+1:] {
			topo.SetRegion("x", a)
			topo.SetRegion("y", b)
			rtt := topo.RTT("x", "y")
			if rtt < 10*time.Millisecond || rtt > 300*time.Millisecond {
				t.Errorf("RTT %s-%s = %s outside 10-300ms", a, b, rtt)
			}
		}
	}
}

func TestNetworkDeliveryAndLatency(t *testing.T) {
	s := NewScheduler()
	topo := NewTopology()
	topo.SetRegion("a", "r1")
	topo.SetRegion("b", "r2")
	topo.SetRTT("r1", "r2", 100*time.Millisecond)
	topo.JitterFrac = 0
	n := NewNetwork(s, topo, 1)
	var deliveredAt time.Duration
	n.Register("b", func(env types.Envelope) { deliveredAt = s.Now() })
	n.Send(types.Envelope{From: "a", To: "b", Layer: types.LayerLocal,
		Msg: types.JoinRequest{Site: "a"}})
	s.RunUntil(time.Second)
	if deliveredAt != 50*time.Millisecond {
		t.Fatalf("delivered at %s, want 50ms (half RTT)", deliveredAt)
	}
	st := n.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNetworkLossRate(t *testing.T) {
	s := NewScheduler()
	n := NewNetwork(s, nil, 7)
	n.LossProb = 0.3
	received := 0
	n.Register("b", func(types.Envelope) { received++ })
	const total = 5000
	for i := 0; i < total; i++ {
		n.Send(types.Envelope{From: "a", To: "b", Layer: types.LayerLocal,
			Msg: types.JoinRequest{Site: "a"}})
	}
	s.RunUntil(time.Minute)
	rate := 1 - float64(received)/total
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("observed loss %.3f, want ~0.30", rate)
	}
	st := n.Stats()
	if st.Dropped+st.Delivered != total {
		t.Fatalf("stats don't add up: %+v", st)
	}
}

func TestNetworkPartitionAndHeal(t *testing.T) {
	s := NewScheduler()
	n := NewNetwork(s, nil, 1)
	got := 0
	n.Register("b", func(types.Envelope) { got++ })
	n.Partition([]types.NodeID{"a"}, []types.NodeID{"b"})
	n.Send(types.Envelope{From: "a", To: "b", Layer: types.LayerLocal,
		Msg: types.JoinRequest{Site: "a"}})
	s.RunUntil(time.Second)
	if got != 0 {
		t.Fatal("partitioned message delivered")
	}
	if n.Stats().Cut != 1 {
		t.Fatalf("cut = %d", n.Stats().Cut)
	}
	n.Heal()
	n.Send(types.Envelope{From: "a", To: "b", Layer: types.LayerLocal,
		Msg: types.JoinRequest{Site: "a"}})
	s.RunUntil(2 * time.Second)
	if got != 1 {
		t.Fatal("healed message not delivered")
	}
}

func TestNetworkUnregisteredDrops(t *testing.T) {
	s := NewScheduler()
	n := NewNetwork(s, nil, 1)
	n.Register("b", func(types.Envelope) { t.Fatal("should not deliver") })
	n.Unregister("b")
	n.Send(types.Envelope{From: "a", To: "b", Layer: types.LayerLocal,
		Msg: types.JoinRequest{Site: "a"}})
	s.RunUntil(time.Second)
	if n.Stats().Unroutable != 1 {
		t.Fatalf("unroutable = %d", n.Stats().Unroutable)
	}
}

// TestNetworkClonesMessages pins what delivery copies: the message's slices,
// which a sender may reuse, but not the read-only payloads inside them.
func TestNetworkClonesMessages(t *testing.T) {
	s := NewScheduler()
	n := NewNetwork(s, nil, 1)
	var got types.Envelope
	n.Register("b", func(env types.Envelope) { got = env })
	entries := []types.Entry{{Index: 1, Kind: types.KindNormal, Data: []byte("abc")}}
	n.Send(types.Envelope{From: "a", To: "b", Layer: types.LayerLocal, Msg: types.AppendEntries{Entries: entries}})
	// The sender reuses its slice before delivery.
	entries[0] = types.Entry{Index: 9}
	s.RunUntil(time.Second)
	ae, ok := got.Msg.(types.AppendEntries)
	if !ok {
		t.Fatalf("got %T", got.Msg)
	}
	if len(ae.Entries) != 1 || ae.Entries[0].Index != 1 || string(ae.Entries[0].Data) != "abc" {
		t.Fatalf("delivered entries aliased the sender's slice: %v", ae.Entries)
	}
}

func TestNetworkDeterminism(t *testing.T) {
	run := func() []time.Duration {
		s := NewScheduler()
		topo := NewTopology()
		n := NewNetwork(s, topo, 42)
		n.LossProb = 0.1
		var times []time.Duration
		n.Register("b", func(types.Envelope) { times = append(times, s.Now()) })
		for i := 0; i < 100; i++ {
			n.Send(types.Envelope{From: "a", To: "b", Layer: types.LayerLocal,
				Msg: types.JoinRequest{Site: "a"}})
		}
		s.RunUntil(time.Second)
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different delivery counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at %s vs %s", i, a[i], b[i])
		}
	}
}
