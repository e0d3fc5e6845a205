package harness

import (
	"bytes"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

// countApplies attaches an apply counter for payload to every host's
// state-machine view (session duplicates never reach it).
func countApplies(c *Cluster, payload []byte) map[types.NodeID]*int {
	counts := make(map[types.NodeID]*int)
	for id, h := range c.Hosts() {
		n := new(int)
		counts[id] = n
		h.OnCommit = func(e types.Entry) {
			if e.Kind == types.KindNormal && bytes.Equal(e.Data, payload) {
				*n++
			}
		}
	}
	return counts
}

// runDoubleCommitScenario drives the ROADMAP double-commit sequence —
// propose → commit → compact past it → crash the proposer → restart →
// retry — and returns how many times the observer node applied the payload
// plus the retry's resolution index. withSessions selects the retry
// identity: a session (SessionID, seq) that survives the restart, or a
// plain re-propose — whose ProposalID collides with the original because
// the restarted proposer's in-memory sequence counter reset.
func runDoubleCommitScenario(t *testing.T, withSessions bool) (applies int, firstIdx, retryIdx types.Index) {
	t.Helper()
	const threshold = 8
	c, err := NewCluster(Options{
		Kind:              KindFastRaft,
		Nodes:             fiveNodes(),
		Seed:              17,
		SnapshotThreshold: threshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	const proposer = types.NodeID("n3")
	const observer = types.NodeID("n1")
	payload := []byte("exactly-once-me")
	counts := countApplies(c, payload)

	var sid types.SessionID
	if withSessions {
		pid, err := c.OpenSession(proposer)
		if err != nil {
			t.Fatal(err)
		}
		idx, ok := c.AwaitResolution(proposer, pid, c.Sched.Now()+30*time.Second)
		if !ok || idx == 0 {
			t.Fatalf("session open did not resolve (idx=%d ok=%v)", idx, ok)
		}
		sid = types.SessionID(idx)
	}

	// The proposal commits and the proposer learns it (this is the point
	// where a real client's acknowledgment gets lost).
	var pid types.ProposalID
	if withSessions {
		pid, err = c.ProposeSession(proposer, sid, 1, payload)
	} else {
		pid, err = c.Propose(proposer, payload)
	}
	if err != nil {
		t.Fatal(err)
	}
	var ok bool
	firstIdx, ok = c.AwaitResolution(proposer, pid, c.Sched.Now()+30*time.Second)
	if !ok || firstIdx == 0 {
		t.Fatalf("first proposal did not commit (idx=%d ok=%v)", firstIdx, ok)
	}

	// Push every node's compaction boundary past the committed entry.
	if _, err := c.RunProposals("n2", 3*threshold, c.Sched.Now()+120*time.Second); err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Second)
	fr := c.Host(proposer).Machine()
	if fr.SnapshotIndex() < firstIdx {
		t.Fatalf("scenario broken: proposer boundary %d below entry %d", fr.SnapshotIndex(), firstIdx)
	}

	// Crash and restart the proposer: its in-memory PID map and pending
	// proposals are gone; only the snapshot survives.
	c.Crash(proposer)
	c.RunFor(2 * time.Second)
	if err := c.Restart(proposer); err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)

	// The client never saw the acknowledgment and retries.
	if withSessions {
		pid, err = c.ProposeSession(proposer, sid, 1, payload)
	} else {
		pid, err = c.Propose(proposer, payload)
	}
	if err != nil {
		t.Fatal(err)
	}
	retryIdx, ok = c.AwaitResolution(proposer, pid, c.Sched.Now()+60*time.Second)
	if !ok {
		t.Fatal("retry did not resolve")
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
	return *counts[observer], firstIdx, retryIdx
}

// TestSessionlessRetryWindowDedups: the retry reuses the original
// ProposalID (the proposer's in-memory sequence counter reset with it), and
// although compaction dropped the entry from every log, the leader's
// bounded window of recently compacted PIDs still resolves the retry to its
// original index — one apply, no duplicate. The guarantee is best-effort:
// TestDoubleCommitWhenWindowEvicted shows where it ends, and sessions
// remain the real exactly-once mechanism.
func TestSessionlessRetryWindowDedups(t *testing.T) {
	applies, firstIdx, retryIdx := runDoubleCommitScenario(t, false)
	if applies != 1 {
		t.Fatalf("observer applied payload %d times, want 1 (retry-window dedup)", applies)
	}
	if retryIdx != firstIdx {
		t.Fatalf("retry resolved to %d, want the original commit index %d", retryIdx, firstIdx)
	}
}

// TestRestartedProposerFreshProposalCommits pins the flip side of the
// retry window: after a crash-restart resets the proposer's in-memory
// sequence counter, its first proposal reuses a ProposalID that other
// nodes still remember in the compacted window — but it carries NEW bytes,
// so it is a fresh proposal, not a retry. It must commit at a fresh index
// and apply, rather than be acknowledged with the old entry's index and
// silently dropped.
func TestRestartedProposerFreshProposalCommits(t *testing.T) {
	const threshold = 8
	c, err := NewCluster(Options{
		Kind:              KindFastRaft,
		Nodes:             fiveNodes(),
		Seed:              17,
		SnapshotThreshold: threshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	const proposer = types.NodeID("n3")
	const observer = types.NodeID("n1")
	newPayload := []byte("post-restart-write")
	counts := countApplies(c, newPayload)

	pid, err := c.Propose(proposer, []byte("pre-crash-write"))
	if err != nil {
		t.Fatal(err)
	}
	firstIdx, ok := c.AwaitResolution(proposer, pid, c.Sched.Now()+30*time.Second)
	if !ok || firstIdx == 0 {
		t.Fatalf("first proposal did not commit (idx=%d ok=%v)", firstIdx, ok)
	}

	// Push every node's compaction boundary past the committed entry so the
	// old mapping lives in the retry window, then crash-restart the
	// proposer to reset its sequence counter.
	if _, err := c.RunProposals("n2", 3*threshold, c.Sched.Now()+120*time.Second); err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Second)
	if fr := c.Host(proposer).Machine(); fr.SnapshotIndex() < firstIdx {
		t.Fatalf("scenario broken: boundary %d below entry %d", fr.SnapshotIndex(), firstIdx)
	}
	c.Crash(proposer)
	c.RunFor(2 * time.Second)
	if err := c.Restart(proposer); err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)

	// Same ProposalID as the pre-crash write, different bytes.
	pid, err = c.Propose(proposer, newPayload)
	if err != nil {
		t.Fatal(err)
	}
	freshIdx, ok := c.AwaitResolution(proposer, pid, c.Sched.Now()+60*time.Second)
	if !ok || freshIdx == 0 {
		t.Fatalf("fresh proposal did not commit (idx=%d ok=%v)", freshIdx, ok)
	}
	if freshIdx == firstIdx {
		t.Fatalf("fresh proposal acknowledged with the old entry's index %d (lost write)", firstIdx)
	}
	c.RunFor(2 * time.Second)
	if got := *counts[observer]; got != 1 {
		t.Fatalf("observer applied the fresh payload %d times, want 1", got)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleCommitWhenWindowEvicted documents the hazard that remains for
// sessionless proposals: once enough later traffic is compacted, the retry
// window evicts the original PID and the retried proposal commits (and
// applies) a second time. If this test ever starts reporting a single
// apply, plain proposals have silently grown unbounded dedup guarantees and
// TestExactlyOnceWithSessions is no longer the load-bearing regression
// test.
func TestDoubleCommitWhenWindowEvicted(t *testing.T) {
	const threshold = 64
	c, err := NewCluster(Options{
		Kind:              KindFastRaft,
		Nodes:             ids("n1", "n2", "n3"),
		Seed:              19,
		SnapshotThreshold: threshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	const proposer = types.NodeID("n3")
	const observer = types.NodeID("n1")
	payload := []byte("evict-then-duplicate")
	counts := countApplies(c, payload)

	pid, err := c.Propose(proposer, payload)
	if err != nil {
		t.Fatal(err)
	}
	firstIdx, ok := c.AwaitResolution(proposer, pid, c.Sched.Now()+30*time.Second)
	if !ok || firstIdx == 0 {
		t.Fatalf("first proposal did not commit (idx=%d ok=%v)", firstIdx, ok)
	}

	// Push more than a full retry window of later proposals through
	// compaction, evicting the payload's mapping everywhere.
	filler := 1100 // > the window's 1024 capacity
	if _, err := c.RunProposals("n2", filler, c.Sched.Now()+20*time.Minute); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	fr := c.Host(proposer).Machine()
	if fr.SnapshotIndex() < firstIdx+types.Index(filler)/2 {
		t.Fatalf("scenario broken: boundary %d did not pass the filler traffic", fr.SnapshotIndex())
	}

	// Crash and restart the proposer: its sequence counter resets, so the
	// retry reuses the original ProposalID — but no node remembers it.
	c.Crash(proposer)
	c.RunFor(2 * time.Second)
	if err := c.Restart(proposer); err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)
	if pid, err = c.Propose(proposer, payload); err != nil {
		t.Fatal(err)
	}
	retryIdx, ok := c.AwaitResolution(proposer, pid, c.Sched.Now()+60*time.Second)
	if !ok {
		t.Fatal("retry did not resolve")
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
	if retryIdx == firstIdx {
		t.Fatalf("retry resolved to the original index %d despite eviction", firstIdx)
	}
	if got := *counts[observer]; got != 2 {
		t.Fatalf("observer applied payload %d times, expected the documented double-commit (2)", got)
	}
}

// TestExactlyOnceWithSessions is the acceptance scenario for the session
// subsystem: the same sequence applies exactly once, and the retry is
// answered with the original commit index.
func TestExactlyOnceWithSessions(t *testing.T) {
	applies, firstIdx, retryIdx := runDoubleCommitScenario(t, true)
	if applies != 1 {
		t.Fatalf("observer applied payload %d times, want exactly 1", applies)
	}
	if retryIdx != firstIdx {
		t.Fatalf("retry resolved to %d, want the original commit index %d", retryIdx, firstIdx)
	}
}

// testSessionDedupLive covers the no-crash path on both flat protocols: a
// duplicate retry of an applied sequence resolves with the cached index
// and is never applied again.
func testSessionDedupLive(t *testing.T, kind Kind) {
	t.Helper()
	c, err := NewCluster(Options{Kind: kind, Nodes: fiveNodes(), Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	const proposer = types.NodeID("n2")
	payload := []byte("dedup-live")
	counts := countApplies(c, payload)

	pid, err := c.OpenSession(proposer)
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := c.AwaitResolution(proposer, pid, c.Sched.Now()+30*time.Second)
	if !ok || idx == 0 {
		t.Fatal("session open did not resolve")
	}
	sid := types.SessionID(idx)

	pid, err = c.ProposeSession(proposer, sid, 1, payload)
	if err != nil {
		t.Fatal(err)
	}
	first, ok := c.AwaitResolution(proposer, pid, c.Sched.Now()+30*time.Second)
	if !ok || first == 0 {
		t.Fatal("first proposal did not commit")
	}

	// Same sequence again: cached response, no second apply.
	pid, err = c.ProposeSession(proposer, sid, 1, payload)
	if err != nil {
		t.Fatal(err)
	}
	again, ok := c.AwaitResolution(proposer, pid, c.Sched.Now()+30*time.Second)
	if !ok {
		t.Fatal("duplicate did not resolve")
	}
	if again != first {
		t.Fatalf("duplicate resolved to %d, want %d", again, first)
	}
	c.RunFor(2 * time.Second)
	for id, n := range counts {
		if *n != 1 {
			t.Fatalf("node %s applied payload %d times, want 1", id, *n)
		}
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestFastRaftSessionDedup(t *testing.T) { testSessionDedupLive(t, KindFastRaft) }

func TestRaftSessionDedup(t *testing.T) { testSessionDedupLive(t, KindRaft) }

// TestFastRaftConcurrentDuplicateRetries exercises the apply-time dedup
// path: two retries of the same (session, seq) race through different
// nodes before either commits, so the duplicate can reach the log — it
// must still apply exactly once, with both proposals answered.
func TestFastRaftConcurrentDuplicateRetries(t *testing.T) {
	c, err := NewCluster(Options{Kind: KindFastRaft, Nodes: fiveNodes(), Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	payload := []byte("racing-retries")
	counts := countApplies(c, payload)

	pid, err := c.OpenSession("n2")
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := c.AwaitResolution("n2", pid, c.Sched.Now()+30*time.Second)
	if !ok || idx == 0 {
		t.Fatal("session open did not resolve")
	}
	sid := types.SessionID(idx)

	// Two sites submit the same sequence back to back, before either
	// commits.
	pidA, err := c.ProposeSession("n2", sid, 1, payload)
	if err != nil {
		t.Fatal(err)
	}
	pidB, err := c.ProposeSession("n4", sid, 1, payload)
	if err != nil {
		t.Fatal(err)
	}
	idxA, ok := c.AwaitResolution("n2", pidA, c.Sched.Now()+60*time.Second)
	if !ok {
		t.Fatal("proposal A did not resolve")
	}
	idxB, ok := c.AwaitResolution("n4", pidB, c.Sched.Now()+60*time.Second)
	if !ok {
		t.Fatal("proposal B did not resolve")
	}
	if idxA == 0 && idxB == 0 {
		t.Fatal("both racing proposals were rejected")
	}
	c.RunFor(2 * time.Second)
	total := 0
	for id, n := range counts {
		if *n > 1 {
			t.Fatalf("node %s applied payload %d times, want at most 1", id, *n)
		}
		total += *n
	}
	if total != len(c.Hosts()) {
		t.Fatalf("%d/%d nodes applied the payload exactly once", total, len(c.Hosts()))
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionExpiry drives the deterministic TTL machinery: an idle
// session is expired by leader clock entries on every replica, after which
// its proposals are rejected rather than risked as re-applies.
func TestSessionExpiry(t *testing.T) {
	const ttl = 3 * time.Second
	c, err := NewCluster(Options{
		Kind:       KindFastRaft,
		Nodes:      fiveNodes(),
		Seed:       31,
		SessionTTL: ttl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	pid, err := c.OpenSession("n2")
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := c.AwaitResolution("n2", pid, c.Sched.Now()+30*time.Second)
	if !ok || idx == 0 {
		t.Fatal("session open did not resolve")
	}
	sid := types.SessionID(idx)

	// Idle well past the TTL; clock entries expire the session everywhere.
	c.RunFor(4 * ttl)
	for id, h := range c.Hosts() {
		if h.Machine().Sessions().Has(sid) {
			t.Fatalf("node %s still has session %v after TTL", id, sid)
		}
	}

	// Proposals under the dead session are rejected (resolution index 0).
	pid, err = c.ProposeSession("n2", sid, 1, []byte("too-late"))
	if err != nil {
		t.Fatal(err)
	}
	idx, ok = c.AwaitResolution("n2", pid, c.Sched.Now()+30*time.Second)
	if !ok {
		t.Fatal("expired-session proposal did not resolve")
	}
	if idx != 0 {
		t.Fatalf("expired-session proposal resolved to %d, want rejection (0)", idx)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestCraftSessionDedup covers the hierarchical protocol: session dedup at
// the intra-cluster level withholds the duplicate from the local commit
// stream, so it is neither applied twice nor batched into the global log
// twice.
func TestCraftSessionDedup(t *testing.T) {
	c := newCraft(t, twoClusterSpecs(), 43, 0)
	if !c.WaitForLeaders(30 * time.Second) {
		t.Fatal("no leaders")
	}
	const site = types.NodeID("a2")
	payload := []byte("craft-dedup")
	applies := 0
	c.Host("a1").OnCommit = func(e types.Entry) {
		if e.Kind == types.KindNormal && bytes.Equal(e.Data, payload) {
			applies++
		}
	}

	pid, err := c.OpenSession(site)
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := c.AwaitResolution(site, pid, c.Sched.Now()+time.Minute)
	if !ok || idx == 0 {
		t.Fatal("session open did not resolve")
	}
	sid := types.SessionID(idx)

	pid, err = c.ProposeSession(site, sid, 1, payload)
	if err != nil {
		t.Fatal(err)
	}
	first, ok := c.AwaitResolution(site, pid, c.Sched.Now()+time.Minute)
	if !ok || first == 0 {
		t.Fatal("first proposal did not commit")
	}
	pid, err = c.ProposeSession(site, sid, 1, payload)
	if err != nil {
		t.Fatal(err)
	}
	again, ok := c.AwaitResolution(site, pid, c.Sched.Now()+time.Minute)
	if !ok {
		t.Fatal("duplicate did not resolve")
	}
	if again != first {
		t.Fatalf("duplicate resolved to %d, want %d", again, first)
	}
	c.RunFor(5 * time.Second)
	if applies != 1 {
		t.Fatalf("observer applied payload %d times, want 1", applies)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRaftSessionSurvivesSnapshotInstall covers the baseline protocol's
// snapshot path: a follower that catches up via InstallSnapshot receives
// the session registry with it and dedups a retry routed through it.
func TestRaftSessionSurvivesSnapshotInstall(t *testing.T) {
	const threshold = 8
	c, err := NewCluster(Options{
		Kind:              KindRaft,
		Nodes:             fiveNodes(),
		Seed:              37,
		SnapshotThreshold: threshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	const proposer = types.NodeID("n4")
	payload := []byte("raft-snapshot-dedup")
	counts := countApplies(c, payload)

	pid, err := c.OpenSession(proposer)
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := c.AwaitResolution(proposer, pid, c.Sched.Now()+30*time.Second)
	if !ok || idx == 0 {
		t.Fatal("session open did not resolve")
	}
	sid := types.SessionID(idx)
	pid, err = c.ProposeSession(proposer, sid, 1, payload)
	if err != nil {
		t.Fatal(err)
	}
	first, ok := c.AwaitResolution(proposer, pid, c.Sched.Now()+30*time.Second)
	if !ok || first == 0 {
		t.Fatal("first proposal did not commit")
	}

	// Compact everywhere, then crash/restart the proposer so its registry
	// can only come back from the snapshot.
	if _, err := c.RunProposals("n1", 3*threshold, c.Sched.Now()+120*time.Second); err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Second)
	c.Crash(proposer)
	c.RunFor(time.Second)
	if err := c.Restart(proposer); err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)

	rn := c.Host(proposer).Machine()
	if !rn.Sessions().Has(sid) {
		t.Fatalf("restarted node lost session %v (registry not in snapshot?)", sid)
	}
	pid, err = c.ProposeSession(proposer, sid, 1, payload)
	if err != nil {
		t.Fatal(err)
	}
	again, ok := c.AwaitResolution(proposer, pid, c.Sched.Now()+60*time.Second)
	if !ok {
		t.Fatal("retry did not resolve")
	}
	if again != first {
		t.Fatalf("retry resolved to %d, want %d", again, first)
	}
	c.RunFor(2 * time.Second)
	if n := *counts["n1"]; n != 1 {
		t.Fatalf("observer applied payload %d times, want 1", n)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionAckTruncatesResponseCaches pins client-acknowledged response
// truncation end to end: a proposal piggybacking a retry floor drops the
// cached responses below it on EVERY replica (the ack is replicated state,
// not a leader-local hint), while dedup above the floor keeps working.
func TestSessionAckTruncatesResponseCaches(t *testing.T) {
	c, err := NewCluster(Options{
		Kind:  KindFastRaft,
		Nodes: fiveNodes(),
		Seed:  13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	const proposer = types.NodeID("n2")
	pid, err := c.OpenSession(proposer)
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := c.AwaitResolution(proposer, pid, c.Sched.Now()+30*time.Second)
	if !ok || idx == 0 {
		t.Fatal("session open did not resolve")
	}
	sid := types.SessionID(idx)

	propose := func(seq, ack uint64) types.Index {
		t.Helper()
		pid, err := c.ProposeSessionAck(proposer, sid, seq, ack, []byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		idx, ok := c.AwaitResolution(proposer, pid, c.Sched.Now()+30*time.Second)
		if !ok {
			t.Fatalf("seq %d did not resolve", seq)
		}
		return idx
	}
	for seq := uint64(1); seq <= 5; seq++ {
		propose(seq, 0)
	}
	c.RunFor(2 * time.Second) // let every replica apply
	for id, h := range c.Hosts() {
		if got := h.Machine().Sessions().ResponseCount(sid); got != 5 {
			t.Fatalf("%s cached %d responses before ack, want 5", id, got)
		}
	}
	// Seq 6 carries the client's floor: nothing below 5 will be retried.
	seq6 := propose(6, 5)
	c.RunFor(2 * time.Second)
	for id, h := range c.Hosts() {
		if got := h.Machine().Sessions().ResponseCount(sid); got != 2 { // 5 and 6
			t.Fatalf("%s cached %d responses after ack, want 2", id, got)
		}
	}
	// A retry at the floor still deduplicates with its original response.
	if idx := propose(6, 5); idx != seq6 {
		t.Fatalf("retry of seq 6 resolved at %d, want original %d", idx, seq6)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}
