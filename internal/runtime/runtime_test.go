package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

// echoMachine is a minimal Machine: it records deliveries, replies to
// JoinRequest with JoinRedirect, emits a committed entry per tick, commits
// a KindNormal entry indexed by the durable LSN on each SyncDone, and
// requests a tick every 10ms.
type echoMachine struct {
	id        types.NodeID
	delivered []types.Envelope
	outbox    []types.Envelope
	committed []types.Entry
	ticks     int
	synced    uint64
	now       time.Duration
}

func (m *echoMachine) NextDeadline() time.Duration { return m.now + 10*time.Millisecond }

func (m *echoMachine) Step(now time.Duration, env types.Envelope) {
	m.now = now
	m.delivered = append(m.delivered, env)
	if jr, ok := env.Msg.(types.JoinRequest); ok {
		m.outbox = append(m.outbox, types.Envelope{
			From: m.id, To: jr.Site, Layer: types.LayerLocal,
			Msg: types.JoinRedirect{Leader: m.id},
		})
	}
}

func (m *echoMachine) Tick(now time.Duration) {
	m.now = now
	m.ticks++
	m.committed = append(m.committed, types.Entry{
		Index: types.Index(m.ticks), Kind: types.KindNoop,
	})
}

func (m *echoMachine) SyncDone(now time.Duration, durableLSN uint64) {
	m.now = now
	m.synced = durableLSN
	m.committed = append(m.committed, types.Entry{
		Index: types.Index(durableLSN), Kind: types.KindNormal,
	})
}

func (m *echoMachine) DrainOutbox(dst []types.Envelope) []types.Envelope {
	return types.Drain(dst, &m.outbox)
}

func (m *echoMachine) DrainCommitted(dst []types.Entry) []types.Entry {
	return types.Drain(dst, &m.committed)
}

func (m *echoMachine) DrainResolved(dst []types.Resolution) []types.Resolution { return dst }

func (m *echoMachine) DrainReadDone(dst []types.ReadDone) []types.ReadDone { return dst }

func TestInProcNetworkDelivery(t *testing.T) {
	net := NewInProcNetwork(1)
	defer net.Close()
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	got := make(chan types.Envelope, 1)
	b.SetHandler(func(env types.Envelope) { got <- env })
	err := a.Send(types.Envelope{From: "a", To: "b", Layer: types.LayerLocal,
		Msg: types.JoinRequest{Site: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-got:
		if env.From != "a" {
			t.Fatalf("env = %v", env)
		}
	case <-time.After(time.Second):
		t.Fatal("no delivery")
	}
}

func TestInProcNetworkLatency(t *testing.T) {
	net := NewInProcNetwork(1)
	defer net.Close()
	net.Latency = func(from, to types.NodeID) time.Duration { return 50 * time.Millisecond }
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	got := make(chan time.Time, 1)
	b.SetHandler(func(types.Envelope) { got <- time.Now() })
	start := time.Now()
	_ = a.Send(types.Envelope{From: "a", To: "b", Layer: types.LayerLocal,
		Msg: types.JoinRequest{Site: "a"}})
	select {
	case at := <-got:
		if d := at.Sub(start); d < 40*time.Millisecond {
			t.Fatalf("delivered after %s, want >= ~50ms", d)
		}
	case <-time.After(time.Second):
		t.Fatal("no delivery")
	}
}

func TestInProcNetworkLoss(t *testing.T) {
	net := NewInProcNetwork(7)
	defer net.Close()
	net.LossProb = 0.5
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	var delivered atomic.Int64
	b.SetHandler(func(types.Envelope) { delivered.Add(1) })
	const total = 2000
	for i := 0; i < total; i++ {
		_ = a.Send(types.Envelope{From: "a", To: "b", Layer: types.LayerLocal,
			Msg: types.JoinRequest{Site: "a"}})
	}
	time.Sleep(200 * time.Millisecond)
	rate := float64(delivered.Load()) / total
	if rate < 0.4 || rate > 0.6 {
		t.Fatalf("delivery rate %.2f, want ~0.5", rate)
	}
}

func TestInProcNetworkDetach(t *testing.T) {
	net := NewInProcNetwork(1)
	defer net.Close()
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	var count atomic.Int64
	b.SetHandler(func(types.Envelope) { count.Add(1) })
	net.Detach("b")
	if err := a.Send(types.Envelope{From: "a", To: "b", Layer: types.LayerLocal,
		Msg: types.JoinRequest{Site: "a"}}); err != nil {
		t.Fatalf("send to detached peer should drop silently: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if count.Load() != 0 {
		t.Fatal("detached endpoint received a message")
	}
}

func TestHostTicksAndCommits(t *testing.T) {
	net := NewInProcNetwork(1)
	defer net.Close()
	m := &echoMachine{id: "a"}
	var commits atomic.Int64
	h := NewHost(m, m.DrainCommitted, net.Endpoint("a"), Callbacks[types.Entry]{
		OnCommit: func(types.Entry) { commits.Add(1) },
	})
	defer h.Stop()
	deadline := time.After(2 * time.Second)
	for commits.Load() < 3 {
		select {
		case <-deadline:
			t.Fatalf("only %d commits observed", commits.Load())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestHostRoutesMessagesBothWays(t *testing.T) {
	net := NewInProcNetwork(1)
	defer net.Close()
	ma := &echoMachine{id: "a"}
	mb := &echoMachine{id: "b"}
	ha := NewHost(ma, ma.DrainCommitted, net.Endpoint("a"), Callbacks[types.Entry]{})
	hb := NewHost(mb, mb.DrainCommitted, net.Endpoint("b"), Callbacks[types.Entry]{})
	defer ha.Stop()
	defer hb.Stop()
	// a sends a JoinRequest to b via Do; b's machine answers with a
	// redirect, which must come back to a.
	ha.Do(func(time.Duration) {
		ma.outbox = append(ma.outbox, types.Envelope{
			From: "a", To: "b", Layer: types.LayerLocal,
			Msg: types.JoinRequest{Site: "a"},
		})
	})
	deadline := time.After(2 * time.Second)
	for {
		var redirected bool
		ha.Do(func(time.Duration) {
			for _, env := range ma.delivered {
				if _, ok := env.Msg.(types.JoinRedirect); ok {
					redirected = true
				}
			}
		})
		if redirected {
			return
		}
		select {
		case <-deadline:
			t.Fatal("redirect never arrived")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestHostStopIsIdempotentAndHaltsTicks(t *testing.T) {
	net := NewInProcNetwork(1)
	defer net.Close()
	m := &echoMachine{id: "a"}
	h := NewHost(m, m.DrainCommitted, net.Endpoint("a"), Callbacks[types.Entry]{})
	h.Stop()
	h.Stop() // second stop must not panic
	var before int
	h.Do(func(time.Duration) { before = m.ticks }) // no-op when stopped
	time.Sleep(60 * time.Millisecond)
	after := m.ticks
	if after > before+1 {
		t.Fatalf("ticks continued after Stop: %d -> %d", before, after)
	}
}

func TestHostCommitOrderPreserved(t *testing.T) {
	net := NewInProcNetwork(1)
	defer net.Close()
	m := &echoMachine{id: "a"}
	var mu sync.Mutex
	var order []types.Index
	h := NewHost(m, m.DrainCommitted, net.Endpoint("a"), Callbacks[types.Entry]{
		OnCommit: func(e types.Entry) {
			mu.Lock()
			order = append(order, e.Index)
			mu.Unlock()
		},
	})
	defer h.Stop()
	deadline := time.After(2 * time.Second)
	for {
		mu.Lock()
		n := len(order)
		mu.Unlock()
		if n >= 5 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("only %d commits", n)
		case <-time.After(10 * time.Millisecond):
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1]+1 {
			t.Fatalf("commit order broken: %v", order)
		}
	}
}

func TestHostNotifyDurableReleasesCommits(t *testing.T) {
	net := NewInProcNetwork(1)
	defer net.Close()
	m := &echoMachine{id: "a"}
	released := make(chan types.Entry, 1)
	h := NewHost(m, m.DrainCommitted, net.Endpoint("a"), Callbacks[types.Entry]{
		OnCommit: func(e types.Entry) {
			if e.Kind == types.KindNormal {
				released <- e
			}
		},
	})
	defer h.Stop()
	h.NotifyDurable(7)
	var synced uint64
	h.Do(func(time.Duration) { synced = m.synced })
	if synced != 7 {
		t.Fatalf("machine saw durable LSN %d, want 7", synced)
	}
	select {
	case e := <-released:
		if e.Index != 7 {
			t.Fatalf("released entry index %d, want 7", e.Index)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the entry SyncDone released never reached OnCommit")
	}
}
