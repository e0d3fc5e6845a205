package udpnet

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

func pair(t *testing.T) (*Transport, *Transport) {
	t.Helper()
	a, err := Listen("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Listen("b", "127.0.0.1:0")
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	if err := a.AddPeer("b", b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer("a", a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
}

func TestUDPRoundTrip(t *testing.T) {
	a, b := pair(t)
	got := make(chan types.Envelope, 1)
	// The transport recycles entry slices after the handler returns, so a
	// handler that hands the envelope to another goroutine must copy them
	// (the runtime's synchronous handler does not need to).
	b.SetHandler(func(env types.Envelope) {
		env.Msg = types.CloneMessage(env.Msg)
		got <- env
	})
	// Send consumes the envelope's entry slices; build a fresh one per
	// attempt. UDP may drop; retry a few times like the protocols do.
	for i := 0; i < 10; i++ {
		want := types.Envelope{
			From: "a", To: "b", Layer: types.LayerLocal,
			Msg: types.AppendEntries{
				Term: 3, LeaderID: "a", LeaderCommit: 7, Round: 9,
				Entries: []types.Entry{{
					Index: 1, Term: 3, Kind: types.KindNormal,
					Approval: types.ApprovedLeader,
					PID:      types.ProposalID{Proposer: "a", Seq: 1},
					Data:     []byte("over-the-wire"),
				}},
			},
		}
		if err := a.Send(want); err != nil {
			t.Fatal(err)
		}
		select {
		case env := <-got:
			ae, ok := env.Msg.(types.AppendEntries)
			if !ok {
				t.Fatalf("got %T", env.Msg)
			}
			if env.From != "a" || env.To != "b" || ae.Term != 3 ||
				len(ae.Entries) != 1 || string(ae.Entries[0].Data) != "over-the-wire" {
				t.Fatalf("mismatch: %+v", env)
			}
			return
		case <-time.After(200 * time.Millisecond):
		}
	}
	t.Fatal("datagram never arrived after retries")
}

func TestUDPUnknownPeerDropsSilently(t *testing.T) {
	a, _ := pair(t)
	err := a.Send(types.Envelope{From: "a", To: "nobody", Layer: types.LayerLocal,
		Msg: types.JoinRequest{Site: "a"}})
	if err != nil {
		t.Fatalf("unknown peer should drop like loss, got %v", err)
	}
}

func TestUDPLossInjection(t *testing.T) {
	a, b := pair(t)
	var n atomic.Int64
	b.SetHandler(func(types.Envelope) { n.Add(1) })
	a.SetLoss(1.0) // drop everything
	for i := 0; i < 50; i++ {
		_ = a.Send(types.Envelope{From: "a", To: "b", Layer: types.LayerLocal,
			Msg: types.JoinRequest{Site: "a"}})
	}
	time.Sleep(100 * time.Millisecond)
	if n.Load() != 0 {
		t.Fatalf("messages delivered despite 100%% loss: %d", n.Load())
	}
	a.SetLoss(0)
	for i := 0; i < 10 && n.Load() == 0; i++ {
		_ = a.Send(types.Envelope{From: "a", To: "b", Layer: types.LayerLocal,
			Msg: types.JoinRequest{Site: "a"}})
		time.Sleep(50 * time.Millisecond)
	}
	if n.Load() == 0 {
		t.Fatal("no delivery after loss cleared")
	}
}

func TestUDPOversizeRejected(t *testing.T) {
	a, _ := pair(t)
	big := make([]byte, MaxDatagram+1)
	err := a.Send(types.Envelope{From: "a", To: "b", Layer: types.LayerLocal,
		Msg: types.ProposeEntry{Index: 1, Entry: types.Entry{Kind: types.KindNormal, Data: big}}})
	if err == nil {
		t.Fatal("oversize datagram accepted")
	}
}

func TestUDPCloseStopsDelivery(t *testing.T) {
	a, b := pair(t)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	// Sends to a closed peer just vanish (UDP semantics).
	if err := a.Send(types.Envelope{From: "a", To: "b", Layer: types.LayerLocal,
		Msg: types.JoinRequest{Site: "a"}}); err != nil {
		t.Fatalf("send after peer close: %v", err)
	}
}
