package harness

import (
	"fmt"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/simnet"
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
	m := ph.Machine().Metrics()
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

// TestCraftSitesLearnGlobalCommitAtOnce: a cluster's sites replay a global
// commit one local hop after their leader does, not a local heartbeat later.
// The leader externalizes the commit by committing a global-state delta it
// proposed itself, so no notification goes out; it ships its regular append
// traffic at once instead. The deployment is craft3x3_delay's: three
// clusters of three sites, 0.3 ms one way inside a cluster and 25 ms
// between clusters, a 20 ms local heartbeat. Every site's replay stream
// stays one stream, and under 5 % loss the deployment still converges.
func TestCraftSitesLearnGlobalCommitAtOnce(t *testing.T) {
	for _, loss := range []float64{0, 0.05} {
		t.Run(fmt.Sprintf("loss=%v", loss), func(t *testing.T) {
			topo := simnet.NewTopology()
			topo.IntraRTT = 600 * time.Microsecond
			topo.DefaultRTT = 50 * time.Millisecond
			var specs []ClusterSpec
			for c := 1; c <= 3; c++ {
				id := fmt.Sprintf("c%d", c)
				specs = append(specs, ClusterSpec{ID: types.NodeID(id), Region: simnet.Region("r" + id),
					Sites: ids(id+"s1", id+"s2", id+"s3")})
			}
			c, err := NewCraftCluster(CraftOptions{
				Clusters: specs, Seed: 29, Topology: topo, LossProb: loss,
				BatchSize: 16, LocalHeartbeat: 20 * time.Millisecond, GlobalHeartbeat: 100 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !c.WaitForLeaders(30 * time.Second) {
				t.Fatal("no leaders")
			}
			// Each site's replay: the stream, and when each index arrived.
			streams := make(map[types.NodeID][]string)
			at := make(map[types.NodeID]map[types.Index]time.Duration)
			for _, s := range specs {
				for _, id := range s.Sites {
					id := id
					at[id] = make(map[types.Index]time.Duration)
					c.Host(id).OnGlobalCommit = func(e types.Entry) {
						streams[id] = append(streams[id], streamKey(e))
						at[id][e.Index] = c.Sched.Now()
					}
				}
			}
			// A follower site of one cluster proposes, as in craft3x3_delay.
			proposer := specs[0].Sites[0]
			if lead, _ := c.LocalLeader(specs[0].ID); lead.ID() == proposer {
				proposer = specs[0].Sites[1]
			}
			end := c.Sched.Now() + 10*time.Second
			if _, err := c.StartProposer(ProposerOptions{Node: proposer, StopAfter: end, ThinkTime: PacedThink}); err != nil {
				t.Fatal(err)
			}
			c.RunUntil(func() bool { return false }, end+2*time.Second)
			if err := c.Safety.Err(); err != nil {
				t.Fatal(err)
			}
			if items := c.GlobalItemsCommitted(0, c.Sched.Now()+1); items < 100 {
				t.Fatalf("only %d items committed globally", items)
			}
			last := c.GlobalCommits[len(c.GlobalCommits)-1].Index
			var ships uint64
			for _, s := range specs {
				lead, ok := c.LocalLeader(s.ID)
				if !ok {
					t.Fatalf("no %s leader", s.ID)
				}
				ships += lead.Node().Metrics()["craft.commit_ships"]
				ref := streams[lead.ID()]
				for _, id := range s.Sites {
					prefixEqual(t, lead.ID(), id, ref, streams[id])
					if at[id][last] == 0 {
						t.Fatalf("%s never replayed global index %d", id, last)
					}
					if loss > 0 || id == lead.ID() {
						continue
					}
					for idx, led := range at[lead.ID()] {
						if lag := at[id][idx] - led; lag < 0 || lag > topo.IntraRTT {
							t.Fatalf("%s replayed global index %d %v after its leader %s (one local round trip is %v)",
								id, idx, lag, lead.ID(), topo.IntraRTT)
						}
					}
				}
			}
			if ships == 0 {
				t.Fatal("craft.commit_ships never moved")
			}
		})
	}
}
