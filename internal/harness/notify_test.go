package harness

import (
	"fmt"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

// streamKey identifies a delivered entry for stream comparison.
func streamKey(e types.Entry) string {
	return fmt.Sprintf("%d/%s/%s/%x", e.Index, e.Kind, e.PID, e.Data)
}

// prefixEqual fails unless one of the two delivery streams is a prefix of the
// other.
func prefixEqual(t *testing.T, a, b types.NodeID, sa, sb []string) {
	t.Helper()
	for i := 0; i < len(sa) && i < len(sb); i++ {
		if sa[i] != sb[i] {
			t.Fatalf("delivery %d differs: %s has %s, %s has %s", i, a, sa[i], b, sb[i])
		}
	}
}

// TestProposerSiteCommitsOnNotification: under loss and duplication a
// follower that proposes commits most of its own entries when the leader's
// notification lands, not at the next heartbeat — and what it delivers to its
// state machine is still the leader's stream, entry for entry. The strict
// auditor (every harness cluster) watches the committed prefix throughout.
func TestProposerSiteCommitsOnNotification(t *testing.T) {
	const heartbeat = 100 * time.Millisecond
	c, err := NewCluster(Options{
		Kind:              KindFastRaft,
		Nodes:             ids("n1", "n2", "n3"),
		Seed:              15,
		LossProb:          0.05,
		DupProb:           0.10,
		HeartbeatInterval: heartbeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	leader, ok := c.WaitForLeader(5 * time.Second)
	if !ok {
		t.Fatal("no leader")
	}
	proposer := types.NodeID("n1")
	if proposer == leader {
		proposer = "n2"
	}
	streams := make(map[types.NodeID][]string)
	for id, h := range c.Hosts() {
		id := id
		h.OnCommit = func(e types.Entry) { streams[id] = append(streams[id], streamKey(e)) }
	}
	// How far behind the resolution index the proposer's own commit index is
	// at the instant Propose resolves: zero when the notification committed.
	var resolvedAtCommit, resolved int
	ph := c.Host(proposer)
	p, err := c.StartProposer(ProposerOptions{Node: proposer, MaxProposals: 200, ThinkTime: heartbeat / 10})
	if err != nil {
		t.Fatal(err)
	}
	next := ph.OnResolve // the proposer's own hook
	ph.OnResolve = func(pid types.ProposalID, at, latency time.Duration) {
		resolved++
		if idx, _ := ph.Resolved(pid); ph.Machine().CommitIndex() >= idx {
			resolvedAtCommit++
		}
		next(pid, at, latency)
	}
	if !c.RunUntil(func() bool { return p.Completed >= 200 }, c.Sched.Now()+5*time.Minute) {
		t.Fatalf("only %d/200 proposals resolved", p.Completed)
	}
	c.RunFor(10 * heartbeat) // let the followers' heartbeats settle
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
	for id, s := range streams {
		prefixEqual(t, proposer, id, streams[proposer], s)
	}
	if len(streams[proposer]) < 200 {
		t.Fatalf("proposer delivered %d entries, want at least its own 200", len(streams[proposer]))
	}
	m := metricsOf(ph.Machine())
	notified := m["fastraft.commits_notified"]
	t.Logf("proposer %s: %d of %d resolutions found the entry committed here; notified=%d ahead=%d mismatch=%d",
		proposer, resolvedAtCommit, resolved, notified, m["fastraft.notify_ahead"], m["fastraft.notify_mismatch"])
	if notified == 0 {
		t.Fatal("fastraft.commits_notified = 0: the proposer never committed on a notification")
	}
	if resolvedAtCommit < resolved/2 {
		t.Fatalf("only %d of %d resolutions found the entry committed at the proposer", resolvedAtCommit, resolved)
	}
	if st := c.Net.Stats(); st.Duplicated == 0 || st.Dropped == 0 {
		t.Fatalf("fault injection inactive: %+v", st)
	}
}

// TestCraftGlobalMemberCommitsOwnBatchOnNotification: a cluster leader that
// is not the global leader proposes its batches to the global instance as a
// follower there; it commits them when the global leader's notification
// arrives. Every site's global replay stream stays one stream.
func TestCraftGlobalMemberCommitsOwnBatchOnNotification(t *testing.T) {
	c := newCraft(t, twoClusterSpecs(), 6, 0)
	if !c.WaitForLeaders(30 * time.Second) {
		t.Fatal("no leaders")
	}
	gl, ok := c.GlobalLeaderCluster()
	if !ok {
		t.Fatal("no global leader")
	}
	spec := twoClusterSpecs()[0]
	if spec.ID == gl {
		spec = twoClusterSpecs()[1]
	}
	streams := make(map[types.NodeID][]string)
	for _, s := range twoClusterSpecs() {
		for _, id := range s.Sites {
			id := id
			c.Host(id).OnGlobalCommit = func(e types.Entry) { streams[id] = append(streams[id], streamKey(e)) }
		}
	}
	// Paced, so that batches are proposed one after another rather than all
	// at once before the member has learned the global log's first commit.
	end := c.Sched.Now() + 20*time.Second
	if _, err := c.StartProposer(ProposerOptions{Node: spec.Sites[0], StopAfter: end, ThinkTime: PacedThink}); err != nil {
		t.Fatal(err)
	}
	c.RunUntil(func() bool { return false }, end+5*time.Second) // and every site replays what has committed
	if items := c.GlobalItemsCommitted(0, c.Sched.Now()+1); items < 100 {
		t.Fatalf("only %d items committed globally", items)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
	lead, ok := c.LocalLeader(spec.ID)
	if !ok {
		t.Fatalf("no %s leader", spec.ID)
	}
	if cur, _ := c.GlobalLeaderCluster(); cur != gl {
		t.Skipf("global leadership moved from %s to %s during the run", gl, cur)
	}
	m := lead.Node().Metrics()
	t.Logf("%s (global follower): global commits_notified=%d ahead=%d mismatch=%d", lead.ID(),
		m["global.fastraft.commits_notified"], m["global.fastraft.notify_ahead"], m["global.fastraft.notify_mismatch"])
	if m["global.fastraft.commits_notified"] == 0 {
		t.Fatal("the proposing global member never committed its own batch on notification")
	}
	ref := streams[lead.ID()]
	if len(ref) == 0 {
		t.Fatal("no global replay at the proposing cluster's leader")
	}
	for id, s := range streams {
		prefixEqual(t, lead.ID(), id, ref, s)
		if len(s) == 0 {
			t.Fatalf("%s replayed nothing", id)
		}
	}
}
