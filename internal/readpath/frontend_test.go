package readpath

import (
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/stats"
	"github.com/hraft-io/hraft/internal/types"
)

// fakeFollower hosts a Frontend in the follower role with a controllable
// commit index and a captured outbox.
type fakeFollower struct {
	f      *Frontend
	c      *stats.Counters
	commit types.Index
	sent   []types.Message
}

func newFakeFollower(retry time.Duration) *fakeFollower {
	ff := &fakeFollower{c: stats.NewCounters()}
	ff.f = NewFrontend(NodeView{
		Self:         "n2",
		IsLeader:     func() bool { return false },
		LeaderID:     func() types.NodeID { return "n1" },
		CommitIndex:  func() types.Index { return ff.commit },
		Floor:        func() types.Index { return 0 },
		Manager:      func() *Manager { return nil },
		Send:         func(_ types.NodeID, m types.Message) { ff.sent = append(ff.sent, m) },
		RetryTimeout: retry,
		RetrySoon:    retry / 4,
	}, 100, ff.c, nil)
	return ff
}

func (ff *fakeFollower) lastRequest(t *testing.T) types.ReadRequest {
	t.Helper()
	if len(ff.sent) == 0 {
		t.Fatal("no ReadRequest forwarded")
	}
	req, ok := ff.sent[len(ff.sent)-1].(types.ReadRequest)
	if !ok {
		t.Fatalf("last message is %T, want ReadRequest", ff.sent[len(ff.sent)-1])
	}
	return req
}

func TestFollowerLocalReadHeldUntilCommitCatchUp(t *testing.T) {
	ff := newFakeFollower(100 * time.Millisecond)
	ff.commit = 3
	id := ff.f.Read(0, types.ReadFollowerLocal)
	req := ff.lastRequest(t)
	if len(req.Reads) != 1 || req.Reads[0].ID != id || req.Reads[0].Consistency != types.ReadFollowerLocal {
		t.Fatalf("forwarded %+v", req.Reads)
	}
	// The leader confirms index 7 but this node has only committed 3: the
	// read must be held, not resolved.
	ff.f.OnReadReply(types.ReadReply{Results: []types.ReadResult{{ID: id, Index: 7, OK: true}}}, 10*time.Millisecond)
	if done := ff.f.TakeDone(); len(done) != 0 {
		t.Fatalf("read resolved before local commit caught up: %+v", done)
	}
	if ff.f.PendingCount() != 1 {
		t.Fatalf("pending = %d, want 1 (held)", ff.f.PendingCount())
	}
	// Commit catching partway up is not enough.
	ff.commit = 6
	ff.f.Flush(20 * time.Millisecond)
	if done := ff.f.TakeDone(); len(done) != 0 {
		t.Fatalf("read resolved at commit 6 < confirmed 7: %+v", done)
	}
	// Reaching the confirmed index releases it at that index.
	ff.commit = 7
	ff.f.Flush(30 * time.Millisecond)
	done := ff.f.TakeDone()
	if len(done) != 1 || done[0].ID != id || done[0].Index != 7 || !done[0].OK {
		t.Fatalf("release = %+v, want ID %d at index 7", done, id)
	}
	if got := ff.c.Get(CounterFollowerReads); got != 1 {
		t.Fatalf("reads_follower_local = %d, want 1", got)
	}
	if got := ff.c.Get(CounterFollowerHeld); got != 1 {
		t.Fatalf("follower_held = %d, want 1", got)
	}
	if ff.f.PendingCount() != 0 {
		t.Fatal("read still pending after release")
	}
}

func TestFollowerLocalReadResolvesImmediatelyWhenCaughtUp(t *testing.T) {
	ff := newFakeFollower(100 * time.Millisecond)
	ff.commit = 9
	id := ff.f.Read(0, types.ReadFollowerLocal)
	// Confirmed index already covered locally: no hold.
	ff.f.OnReadReply(types.ReadReply{Results: []types.ReadResult{{ID: id, Index: 8, OK: true}}}, 5*time.Millisecond)
	done := ff.f.TakeDone()
	if len(done) != 1 || done[0].Index != 8 || !done[0].OK {
		t.Fatalf("done = %+v", done)
	}
	if got := ff.c.Get(CounterFollowerReads); got != 1 {
		t.Fatalf("reads_follower_local = %d, want 1", got)
	}
	if got := ff.c.Get(CounterFollowerHeld); got != 0 {
		t.Fatalf("follower_held = %d, want 0 (never parked)", got)
	}
}

func TestFollowerLocalHeldReadReforwardsOnStall(t *testing.T) {
	const retry = 100 * time.Millisecond
	ff := newFakeFollower(retry)
	ff.commit = 1
	id := ff.f.Read(0, types.ReadFollowerLocal)
	ff.f.OnReadReply(types.ReadReply{Results: []types.ReadResult{{ID: id, Index: 5, OK: true}}}, 10*time.Millisecond)
	forwarded := len(ff.sent)
	// Before the refreshed deadline nothing re-sends.
	ff.f.Retry(10*time.Millisecond + retry - 1)
	if len(ff.sent) != forwarded {
		t.Fatal("held read re-forwarded before its deadline")
	}
	// Catch-up stalled past the deadline: the read re-confirms from scratch.
	ff.f.Retry(10*time.Millisecond + retry)
	req := ff.lastRequest(t)
	if len(req.Reads) != 1 || req.Reads[0].ID != id {
		t.Fatalf("stalled read not re-forwarded: %+v", req.Reads)
	}
	// The fresh confirmation resolves once commit covers it.
	ff.f.OnReadReply(types.ReadReply{Results: []types.ReadResult{{ID: id, Index: 6, OK: true}}}, 200*time.Millisecond)
	ff.commit = 6
	ff.f.Flush(210 * time.Millisecond)
	done := ff.f.TakeDone()
	if len(done) != 1 || done[0].Index != 6 || !done[0].OK {
		t.Fatalf("done = %+v", done)
	}
}

func TestLinearizableReadNotHeld(t *testing.T) {
	ff := newFakeFollower(100 * time.Millisecond)
	ff.commit = 2
	id := ff.f.Read(0, types.ReadLinearizable)
	// A plain linearizable read resolves on reply even when the local
	// commit index lags: the caller owns the apply-through-index wait.
	ff.f.OnReadReply(types.ReadReply{Results: []types.ReadResult{{ID: id, Index: 9, OK: true}}}, 5*time.Millisecond)
	done := ff.f.TakeDone()
	if len(done) != 1 || done[0].Index != 9 || !done[0].OK {
		t.Fatalf("done = %+v", done)
	}
}
