package readpath

import (
	"slices"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/stats"
	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// sentMsg is one captured outbound message.
type sentMsg struct {
	to  types.NodeID
	msg types.Message
}

// fakeNode hosts a Frontend as node n2 with a controllable leader view,
// commit index and (while leading) Manager, and a captured outbox. It
// starts as a follower of n1.
type fakeNode struct {
	f      *Frontend
	c      *stats.Counters
	commit types.Index
	leader types.NodeID
	mgr    *Manager
	sent   []sentMsg
}

func newFakeNode(retry time.Duration, rec *trace.Recorder) *fakeNode {
	ff := &fakeNode{c: stats.NewCounters(), leader: "n1"}
	ff.f = NewFrontend(NodeView{
		Self:         "n2",
		IsLeader:     func() bool { return ff.mgr != nil },
		LeaderID:     func() types.NodeID { return ff.leader },
		CommitIndex:  func() types.Index { return ff.commit },
		Floor:        func() types.Index { return 0 },
		Manager:      func() *Manager { return ff.mgr },
		Send:         func(to types.NodeID, m types.Message) { ff.sent = append(ff.sent, sentMsg{to, m}) },
		RetryTimeout: retry,
		RetrySoon:    retry / 4,
	}, 100, ff.c, rec)
	return ff
}

func newFakeFollower(retry time.Duration) *fakeNode { return newFakeNode(retry, nil) }

// lead makes the fake node the leader of {n1, n2, n3}.
func (ff *fakeNode) lead() {
	ff.mgr = NewManager(Config{Self: "n2", LeaseBase: time.Second}, ff.c)
	ff.mgr.SetMembership([]types.NodeID{"n1", "n2", "n3"})
	ff.leader = "n2"
}

func (ff *fakeNode) lastRequest(t *testing.T) types.ReadRequest {
	t.Helper()
	if len(ff.sent) == 0 {
		t.Fatal("no ReadRequest forwarded")
	}
	req, ok := ff.sent[len(ff.sent)-1].msg.(types.ReadRequest)
	if !ok {
		t.Fatalf("last message is %T, want ReadRequest", ff.sent[len(ff.sent)-1].msg)
	}
	return req
}

// requestsSince returns the read IDs of every ReadRequest sent from outbox
// position from on, one slice per request, failing on any other message
// or a request not addressed to the want leader.
func (ff *fakeNode) requestsSince(t *testing.T, from int, want types.NodeID) [][]uint64 {
	t.Helper()
	var out [][]uint64
	for _, s := range ff.sent[from:] {
		req, ok := s.msg.(types.ReadRequest)
		if !ok {
			t.Fatalf("sent %T, want ReadRequest", s.msg)
		}
		if s.to != want {
			t.Fatalf("ReadRequest went to %s, want %s", s.to, want)
		}
		var ids []uint64
		for _, r := range req.Reads {
			ids = append(ids, r.ID)
		}
		out = append(out, ids)
	}
	return out
}

func (ff *fakeNode) reply(now time.Duration, idx types.Index, ids ...uint64) {
	var rs []types.ReadResult
	for _, id := range ids {
		rs = append(rs, types.ReadResult{ID: id, Index: idx, OK: true})
	}
	ff.f.OnReadReply(types.ReadReply{Results: rs}, now)
}

func doneIDs(done []types.ReadDone) []uint64 {
	var ids []uint64
	for _, d := range done {
		ids = append(ids, d.ID)
	}
	return ids
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
	if done := ff.f.DrainDone(nil); len(done) != 0 {
		t.Fatalf("read resolved before local commit caught up: %+v", done)
	}
	if ff.f.PendingCount() != 1 {
		t.Fatalf("pending = %d, want 1 (held)", ff.f.PendingCount())
	}
	// Commit catching partway up is not enough.
	ff.commit = 6
	ff.f.Flush(20 * time.Millisecond)
	if done := ff.f.DrainDone(nil); len(done) != 0 {
		t.Fatalf("read resolved at commit 6 < confirmed 7: %+v", done)
	}
	// Reaching the confirmed index releases it at that index.
	ff.commit = 7
	ff.f.Flush(30 * time.Millisecond)
	done := ff.f.DrainDone(nil)
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
	done := ff.f.DrainDone(nil)
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
	done := ff.f.DrainDone(nil)
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
	done := ff.f.DrainDone(nil)
	if len(done) != 1 || done[0].Index != 9 || !done[0].OK {
		t.Fatalf("done = %+v", done)
	}
}

// TestSecondReadShipsWhileFirstUnanswered: batching is the leader's job, so
// a read issued while an earlier one is still out ships at once in its own
// ReadRequest instead of waiting for the earlier reply.
func TestSecondReadShipsWhileFirstUnanswered(t *testing.T) {
	ff := newFakeFollower(100 * time.Millisecond)
	a := ff.f.Read(0, types.ReadLinearizable)
	b := ff.f.Read(time.Millisecond, types.ReadFollowerLocal)
	got := ff.requestsSince(t, 0, "n1")
	if want := [][]uint64{{a}, {b}}; !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("requests = %v, want %v", got, want)
	}
	if r, f := ff.c.Get(CounterForwardRequests), ff.c.Get(CounterForwarded); r != 2 || f != 2 {
		t.Fatalf("forward_requests = %d, reads_forwarded = %d, want 2 and 2", r, f)
	}
}

// TestRetryShipsDueReadsInOneRequest: reads one entry point produces share
// one ReadRequest — here every read whose request was lost comes due in
// the same Retry.
func TestRetryShipsDueReadsInOneRequest(t *testing.T) {
	const retry = 100 * time.Millisecond
	ff := newFakeFollower(retry)
	ids := []uint64{
		ff.f.Read(0, types.ReadLinearizable),
		ff.f.Read(0, types.ReadFollowerLocal),
		ff.f.Read(0, types.ReadLeaseBased),
	}
	before := len(ff.sent)
	ff.f.Retry(retry)
	if got := ff.requestsSince(t, before, "n1"); len(got) != 1 || !slices.Equal(got[0], ids) {
		t.Fatalf("retry sent %v, want one request carrying %v", got, ids)
	}
	if r := ff.c.Get(CounterForwardRequests); r != 4 {
		t.Fatalf("forward_requests = %d, want 4 (three at issue, one retry)", r)
	}
}

// TestRepliesResolveInEitherOrder: two requests out at once may be
// answered in any order.
func TestRepliesResolveInEitherOrder(t *testing.T) {
	for _, secondFirst := range []bool{false, true} {
		ff := newFakeFollower(100 * time.Millisecond)
		a := ff.f.Read(0, types.ReadLinearizable)
		b := ff.f.Read(time.Millisecond, types.ReadLinearizable)
		order := []uint64{a, b}
		if secondFirst {
			order = []uint64{b, a}
		}
		for i, id := range order {
			ff.reply(10*time.Millisecond, types.Index(5+i), id)
			if got := doneIDs(ff.f.DrainDone(nil)); !slices.Equal(got, []uint64{id}) {
				t.Fatalf("secondFirst=%v: reply for %d resolved %v", secondFirst, id, got)
			}
		}
		if ff.f.PendingCount() != 0 {
			t.Fatalf("secondFirst=%v: %d reads still pending", secondFirst, ff.f.PendingCount())
		}
	}
}

// TestDuplicateOrLateReplyIgnored: a result for a read no longer pending —
// a duplicated reply, or the original request's answer arriving after the
// re-sent one's — resolves nothing.
func TestDuplicateOrLateReplyIgnored(t *testing.T) {
	const retry = 100 * time.Millisecond
	ff := newFakeFollower(retry)
	a := ff.f.Read(0, types.ReadLinearizable)
	ff.reply(5*time.Millisecond, 4, a)
	ff.reply(6*time.Millisecond, 4, a)
	if got := doneIDs(ff.f.DrainDone(nil)); !slices.Equal(got, []uint64{a}) {
		t.Fatalf("reply + duplicate resolved %v, want %d once", got, a)
	}
	b := ff.f.Read(10*time.Millisecond, types.ReadLinearizable)
	ff.f.Retry(10*time.Millisecond + retry) // b's first answer is slow: re-sent
	ff.reply(120*time.Millisecond, 7, b)    // the re-send's answer
	ff.reply(130*time.Millisecond, 6, b)    // the original's, late
	done := ff.f.DrainDone(nil)
	if len(done) != 1 || done[0].ID != b || done[0].Index != 7 {
		t.Fatalf("done = %+v, want %d once at index 7", done, b)
	}
}

// TestLostRequestReshipsOnlyDueReads: a read whose request went unanswered
// re-ships at its own deadline; reads issued later wait for theirs.
func TestLostRequestReshipsOnlyDueReads(t *testing.T) {
	const retry = 100 * time.Millisecond
	ff := newFakeFollower(retry)
	a := ff.f.Read(0, types.ReadLinearizable)
	b := ff.f.Read(50*time.Millisecond, types.ReadLinearizable)
	before := len(ff.sent)
	ff.f.Retry(retry - 1)
	if len(ff.sent) != before {
		t.Fatal("re-sent before any deadline")
	}
	ff.f.Retry(retry)
	if got := ff.requestsSince(t, before, "n1"); len(got) != 1 || !slices.Equal(got[0], []uint64{a}) {
		t.Fatalf("at a's deadline sent %v, want [[%d]]", got, a)
	}
	before = len(ff.sent)
	ff.f.Retry(50*time.Millisecond + retry)
	if got := ff.requestsSince(t, before, "n1"); len(got) != 1 || !slices.Equal(got[0], []uint64{b}) {
		t.Fatalf("at b's deadline sent %v, want [[%d]]", got, b)
	}
}

// TestHeldReadNotResent: a follower-local read the leader already confirmed
// waits for the local commit index, not for another confirmation — neither
// a Retry before its deadline nor a leader change re-sends it.
func TestHeldReadNotResent(t *testing.T) {
	const retry = 100 * time.Millisecond
	ff := newFakeFollower(retry)
	ff.commit = 1
	a := ff.f.Read(0, types.ReadFollowerLocal)
	ff.reply(10*time.Millisecond, 5, a)
	before := len(ff.sent)
	ff.f.Retry(10*time.Millisecond + retry - 1)
	ff.leader = "n3"
	ff.f.Forward(20 * time.Millisecond)
	if len(ff.sent) != before {
		t.Fatalf("held read re-sent: %v", ff.sent[before:])
	}
	b := ff.f.Read(30*time.Millisecond, types.ReadFollowerLocal)
	if got := ff.requestsSince(t, before, "n3"); len(got) != 1 || !slices.Equal(got[0], []uint64{b}) {
		t.Fatalf("sent %v, want only [[%d]] to the new leader", got, b)
	}
	ff.commit = 5
	ff.f.Flush(40 * time.Millisecond)
	if done := ff.f.DrainDone(nil); len(done) != 1 || done[0].ID != a || done[0].Index != 5 {
		t.Fatalf("done = %+v, want %d at index 5", done, a)
	}
}

// TestReadsFollowLeaderChange: a leader change re-addresses every read
// still out at the old leader, and a read issued while no leader was known
// ships with them, in one request and without waiting for a deadline.
func TestReadsFollowLeaderChange(t *testing.T) {
	ff := newFakeFollower(time.Second)
	a := ff.f.Read(0, types.ReadLinearizable)
	ff.leader = types.None
	b := ff.f.Read(time.Millisecond, types.ReadLinearizable)
	ff.f.Forward(2 * time.Millisecond)
	if got := ff.requestsSince(t, 0, "n1"); len(got) != 1 {
		t.Fatalf("sent %v with no leader known, want only a's first request", got)
	}
	ff.leader = "n3"
	ff.f.Forward(3 * time.Millisecond)
	if got := ff.requestsSince(t, 1, "n3"); len(got) != 1 || !slices.Equal(slices.Sorted(slices.Values(got[0])), []uint64{a, b}) {
		t.Fatalf("leader change sent %v, want [[%d %d]] to n3", got, a, b)
	}
	ff.f.Forward(4 * time.Millisecond)
	if len(ff.sent) != 2 {
		t.Fatalf("unchanged leader re-sent: %v", ff.sent[2:])
	}
	// The old leader's answer still counts (it confirmed after the read was
	// issued); the new leader's then finds nothing pending.
	ff.reply(5*time.Millisecond, 3, a)
	ff.reply(6*time.Millisecond, 4, a, b)
	done := ff.f.DrainDone(nil)
	if len(done) != 2 || done[0].ID != a || done[0].Index != 3 || done[1].ID != b || done[1].Index != 4 {
		t.Fatalf("done = %+v", done)
	}
}

// lastServeTrace returns the trace ID on the read's last EvReadServe event.
func lastServeTrace(t *testing.T, rec *trace.Recorder, id uint64) uint64 {
	t.Helper()
	var tid uint64
	found := false
	for _, e := range rec.Snapshot() {
		if e.Type == trace.EvReadServe && e.Arg == id {
			tid, found = e.Trace, true
		}
	}
	if !found {
		t.Fatalf("read %d never served", id)
	}
	return tid
}

// sampledNode returns a fake node recording every read's trace, and the ID
// its first read is minted (the sampler is a deterministic counter).
func sampledNode() (*fakeNode, *trace.Recorder, uint64) {
	cfg := trace.Config{Node: "n2", SampleRate: 1}
	rec := trace.New(cfg)
	return newFakeNode(100*time.Millisecond, rec), rec, trace.New(cfg).MintTrace()
}

// TestTraceSurvivesStepDown: a sampled read registered on a leader that
// steps down falls back to forwarding with its trace ID, and its final
// ReadServe carries the ID minted at issue.
func TestTraceSurvivesStepDown(t *testing.T) {
	ff, rec, tid := sampledNode()
	ff.lead()
	id := ff.f.Read(0, types.ReadLinearizable)
	ff.f.FailLeaderReads(10 * time.Millisecond)
	ff.mgr, ff.leader = nil, "n1"
	ff.f.Forward(10 * time.Millisecond)
	if req := ff.lastRequest(t); len(req.Reads) != 1 || req.Reads[0].ID != id || req.Reads[0].Trace != tid {
		t.Fatalf("re-forwarded %+v, want read %d with trace %x", req.Reads, id, tid)
	}
	ff.reply(20*time.Millisecond, 2, id)
	if got := lastServeTrace(t, rec, id); got != tid {
		t.Fatalf("final ReadServe trace = %x, want %x", got, tid)
	}
}

// TestTraceSurvivesBecomingLeader: a sampled read pending on a follower
// that becomes leader is served there with its trace ID.
func TestTraceSurvivesBecomingLeader(t *testing.T) {
	ff, rec, tid := sampledNode()
	id := ff.f.Read(0, types.ReadLinearizable)
	ff.lead()
	ff.f.Retry(10 * time.Millisecond)
	ctx := ff.mgr.StampRound(10 * time.Millisecond)
	ff.mgr.ObserveAck("n1", ctx, 15*time.Millisecond)
	ff.f.Flush(15 * time.Millisecond)
	if got := doneIDs(ff.f.DrainDone(nil)); !slices.Equal(got, []uint64{id}) {
		t.Fatalf("resolved %v, want [%d]", got, id)
	}
	if got := lastServeTrace(t, rec, id); got != tid {
		t.Fatalf("final ReadServe trace = %x, want %x", got, tid)
	}
}
