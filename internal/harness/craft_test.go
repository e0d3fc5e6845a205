package harness

import (
	"fmt"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/simnet"
	"github.com/hraft-io/hraft/internal/types"
)

// twoClusterSpecs builds two 3-site clusters in different regions.
func twoClusterSpecs() []ClusterSpec {
	return []ClusterSpec{
		{ID: "cA", Sites: ids("a1", "a2", "a3"), Region: "us-east-1"},
		{ID: "cB", Sites: ids("b1", "b2", "b3"), Region: "eu-west-1"},
	}
}

func newCraft(t *testing.T, specs []ClusterSpec, seed int64, loss float64) *CraftCluster {
	t.Helper()
	c, err := NewCraftCluster(CraftOptions{
		Clusters: specs,
		Seed:     seed,
		LossProb: loss,
	})
	if err != nil {
		t.Fatalf("NewCraftCluster: %v", err)
	}
	return c
}

func TestCraftElectsLeadersBothLevels(t *testing.T) {
	c := newCraft(t, twoClusterSpecs(), 1, 0)
	if !c.WaitForLeaders(30 * time.Second) {
		t.Fatal("local/global leaders not elected within 30s virtual")
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestCraftCommitsBatchesGlobally runs with the fast track on and off: C-Raft
// passes DisableFastTrack to both levels, so with it off a cluster's global
// member forwards its batches to the global leader as classic proposals.
func TestCraftCommitsBatchesGlobally(t *testing.T) {
	for _, classic := range []bool{false, true} {
		c, err := NewCraftCluster(CraftOptions{Clusters: twoClusterSpecs(), Seed: 2, DisableFastTrack: classic})
		if err != nil {
			t.Fatalf("NewCraftCluster: %v", err)
		}
		if !c.WaitForLeaders(30 * time.Second) {
			t.Fatal("no leaders")
		}
		global := map[string]int{}
		c.Net.OnDeliver = func(env types.Envelope) {
			if env.Layer == types.LayerGlobal {
				global[env.Msg.MsgName()]++
			}
		}
		// Propose 25 entries in cluster A: at batch size 10 at least two full
		// batches must reach the global log. The classic run proposes in
		// whichever cluster does not lead the global ring, so its batches
		// must be forwarded.
		proposer := types.NodeID("a1")
		if g, _ := c.GlobalLeaderCluster(); classic && g == "cA" {
			proposer = "b1"
		}
		p, err := c.StartProposer(ProposerOptions{Node: proposer, MaxProposals: 25})
		if err != nil {
			t.Fatal(err)
		}
		ok := c.RunUntil(func() bool { return p.Completed >= 25 }, c.Sched.Now()+2*time.Minute)
		if !ok {
			t.Fatalf("classic=%v: only %d/25 local proposals resolved", classic, p.Completed)
		}
		ok = c.RunUntil(func() bool {
			return c.GlobalItemsCommitted(0, c.Sched.Now()+1) >= 20
		}, c.Sched.Now()+2*time.Minute)
		if !ok {
			t.Fatalf("classic=%v: only %d items committed globally", classic, c.GlobalItemsCommitted(0, c.Sched.Now()+1))
		}
		if fast := global["ProposeEntry"] + global["VoteEntry"]; classic && (fast != 0 || global["ClientPropose"] == 0) {
			t.Fatalf("classic global level: %d fast-track messages, %d ClientPropose", fast, global["ClientPropose"])
		} else if !classic && global["ProposeEntry"] == 0 {
			t.Fatal("fast global level sent no ProposeEntry")
		}
		if err := c.Safety.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCraftBothClustersBatch(t *testing.T) {
	c := newCraft(t, twoClusterSpecs(), 3, 0)
	if !c.WaitForLeaders(30 * time.Second) {
		t.Fatal("no leaders")
	}
	pa, _ := c.StartProposer(ProposerOptions{Node: "a2", MaxProposals: 15})
	pb, _ := c.StartProposer(ProposerOptions{Node: "b2", MaxProposals: 15})
	ok := c.RunUntil(func() bool {
		return pa.Completed >= 15 && pb.Completed >= 15 &&
			c.GlobalItemsCommitted(0, c.Sched.Now()+1) >= 20
	}, 5*time.Minute)
	if !ok {
		t.Fatalf("pa=%d pb=%d global=%d", pa.Completed, pb.Completed,
			c.GlobalItemsCommitted(0, c.Sched.Now()+1))
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestCraftLocalLeaderFailoverKeepsGlobalState(t *testing.T) {
	c := newCraft(t, twoClusterSpecs(), 4, 0)
	if !c.WaitForLeaders(30 * time.Second) {
		t.Fatal("no leaders")
	}
	p, _ := c.StartProposer(ProposerOptions{Node: "a1", MaxProposals: 200})
	// Let some batches through.
	ok := c.RunUntil(func() bool {
		return c.GlobalItemsCommitted(0, c.Sched.Now()+1) >= 20
	}, 3*time.Minute)
	if !ok {
		t.Fatalf("no initial global commits (items=%d, local=%d)",
			c.GlobalItemsCommitted(0, c.Sched.Now()+1), p.Completed)
	}
	// Kill cluster A's current leader.
	lead, okl := c.LocalLeader("cA")
	if !okl {
		t.Fatal("no cA leader")
	}
	crashed := lead.ID()
	c.Crash(crashed)
	// The proposer may have been on the crashed node; start another on a
	// survivor.
	var survivor types.NodeID
	for _, s := range []types.NodeID{"a1", "a2", "a3"} {
		if s != crashed {
			survivor = s
			break
		}
	}
	if crashed == "a1" {
		if _, err := c.StartProposer(ProposerOptions{Node: survivor, MaxProposals: 200}); err != nil {
			t.Fatal(err)
		}
	}
	before := c.GlobalItemsCommitted(0, c.Sched.Now()+1)
	ok = c.RunUntil(func() bool {
		return c.GlobalItemsCommitted(0, c.Sched.Now()+1) >= before+30
	}, c.Sched.Now()+5*time.Minute)
	if !ok {
		t.Fatalf("global commits stalled after local leader failover: before=%d now=%d",
			before, c.GlobalItemsCommitted(0, c.Sched.Now()+1))
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestCraftNewClusterJoins(t *testing.T) {
	c := newCraft(t, twoClusterSpecs(), 5, 0)
	if !c.WaitForLeaders(30 * time.Second) {
		t.Fatal("no leaders")
	}
	spec := ClusterSpec{ID: "cC", Sites: ids("c1", "c2", "c3"), Region: "ap-northeast-1"}
	if err := c.AddCluster(spec); err != nil {
		t.Fatal(err)
	}
	// Wait until the new cluster is a voting member of the global config.
	ok := c.RunUntil(func() bool {
		h, okl := c.LocalLeader("cC")
		if !okl {
			return false
		}
		return h.Node().GlobalConfig().Contains("cC") && h.Node().IsGlobalMember()
	}, c.Sched.Now()+2*time.Minute)
	if !ok {
		t.Fatal("new cluster never joined the global configuration")
	}
	// And that it can get a batch committed globally.
	p, _ := c.StartProposer(ProposerOptions{Node: "c1", MaxProposals: 30})
	before := len(c.GlobalCommits)
	ok = c.RunUntil(func() bool {
		h, okl := c.LocalLeader("cC")
		if !okl {
			return false
		}
		for _, gc := range c.GlobalCommits[before:] {
			if gc.Items == 0 {
				continue
			}
			e, found := h.Node().GlobalLogEntry(gc.Index)
			if !found {
				continue
			}
			if b, err := types.DecodeBatch(e.Data); err == nil && b.Cluster == "cC" {
				return true
			}
		}
		return false
	}, c.Sched.Now()+5*time.Minute)
	if !ok {
		t.Fatalf("new cluster's batches never committed globally (local=%d)", p.Completed)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestCraftThroughputScalesWithClusters(t *testing.T) {
	// Small smoke version of Figure 5's trend: 2 clusters should commit
	// more global items per second than 1 cluster with the same total
	// proposers-per-cluster workload.
	run := func(n int) float64 {
		regions := simnet.AWSRegions()
		var specs []ClusterSpec
		site := 0
		for i := 0; i < n; i++ {
			var sites []types.NodeID
			for j := 0; j < 2; j++ {
				site++
				sites = append(sites, types.NodeID(fmt.Sprintf("s%d", site)))
			}
			specs = append(specs, ClusterSpec{
				ID:     types.NodeID(fmt.Sprintf("c%d", i+1)),
				Sites:  sites,
				Region: regions[i%len(regions)],
			})
		}
		c := newCraft(t, specs, 6, 0)
		if !c.WaitForLeaders(60 * time.Second) {
			t.Fatal("no leaders")
		}
		start := c.Sched.Now()
		for _, spec := range specs {
			if _, err := c.StartProposer(ProposerOptions{Node: spec.Sites[0], StopAfter: start + 60*time.Second, ThinkTime: PacedThink}); err != nil {
				t.Fatal(err)
			}
		}
		c.RunFor(70 * time.Second)
		if err := c.Safety.Err(); err != nil {
			t.Fatal(err)
		}
		items := c.GlobalItemsCommitted(start, start+60*time.Second)
		return float64(items) / 60.0
	}
	one := run(1)
	two := run(2)
	t.Logf("global items/s: 1 cluster=%.1f, 2 clusters=%.1f", one, two)
	if two <= one {
		t.Fatalf("throughput should scale with clusters: 1=%.1f 2=%.1f", one, two)
	}
}

// TestCraftToleratesDuplicationAndLoss runs the two-cluster deployment
// under combined loss and duplication: safety must hold on every log and
// batches must still flow globally.
func TestCraftToleratesDuplicationAndLoss(t *testing.T) {
	c, err := NewCraftCluster(CraftOptions{
		Clusters: twoClusterSpecs(),
		Seed:     41,
		LossProb: 0.03,
		DupProb:  0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.WaitForLeaders(time.Minute) {
		t.Fatal("no leaders")
	}
	end := c.Sched.Now() + 90*time.Second
	for _, spec := range twoClusterSpecs() {
		if _, err := c.StartProposer(ProposerOptions{Node: spec.Sites[0], StopAfter: end, ThinkTime: PacedThink}); err != nil {
			t.Fatal(err)
		}
	}
	c.RunUntil(func() bool { return false }, end+5*time.Second)
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
	if items := c.GlobalItemsCommitted(0, end+5*time.Second); items < 50 {
		t.Fatalf("only %d items committed globally under dup+loss", items)
	}
	if st := c.Net.Stats(); st.Duplicated == 0 || st.Dropped == 0 {
		t.Fatalf("fault injection inactive: %+v", st)
	}
}

// TestCraftBatchesSurviveLocalCompaction runs C-Raft with an aggressive
// local-log compaction threshold, crash-restarts the leading site of one
// cluster mid-run, and requires that every proposed item still reaches the
// global log exactly through the replayed (now snapshot-based) state: the
// successor and the restarted site recover batching position from the
// snapshot instead of a full local-log replay.
func TestCraftBatchesSurviveLocalCompaction(t *testing.T) {
	c, err := NewCraftCluster(CraftOptions{
		Clusters:          twoClusterSpecs(),
		Seed:              5,
		SnapshotThreshold: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.WaitForLeaders(30 * time.Second) {
		t.Fatal("no leaders")
	}
	p, err := c.StartProposer(ProposerOptions{Node: "a1", MaxProposals: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Let roughly half the proposals commit, then kill cluster A's leader.
	if !c.RunUntil(func() bool { return p.Completed >= 20 }, c.Sched.Now()+2*time.Minute) {
		t.Fatalf("only %d/20 warm-up proposals resolved", p.Completed)
	}
	lead, ok := c.LocalLeader("cA")
	if !ok {
		t.Fatal("cluster A has no leader")
	}
	crashed := lead.ID()
	c.Crash(crashed)
	if crashed == "a1" {
		// The proposer lived on the crashed site; restart it below and let
		// the remaining proposals flow after recovery.
		if err := c.Restart(crashed); err != nil {
			t.Fatal(err)
		}
	}
	if !c.RunUntil(func() bool { return p.Completed >= 40 }, c.Sched.Now()+4*time.Minute) {
		t.Fatalf("only %d/40 proposals resolved after leader crash", p.Completed)
	}
	if crashed != "a1" {
		if err := c.Restart(crashed); err != nil {
			t.Fatal(err)
		}
	}
	// All 40 items must reach the global log (no loss, no duplication).
	ok = c.RunUntil(func() bool {
		return c.GlobalItemsCommitted(0, c.Sched.Now()+1) >= 40
	}, c.Sched.Now()+4*time.Minute)
	if !ok {
		t.Fatalf("only %d/40 items committed globally", c.GlobalItemsCommitted(0, c.Sched.Now()+1))
	}
	// Compaction must actually have happened in cluster A.
	compacted := false
	for _, site := range []types.NodeID{"a1", "a2", "a3"} {
		if c.Host(site).Node().LocalSnapshotIndex() > 0 {
			compacted = true
		}
	}
	if !compacted {
		t.Fatal("no cluster-A site compacted its local log")
	}
	// Batch items must not have been duplicated into the global log: count
	// distinct item PIDs against total items.
	seen := make(map[types.ProposalID]int)
	for idx := types.Index(1); ; idx++ {
		e, ok := c.Host("a2").Node().GlobalLogEntry(idx)
		if !ok {
			break
		}
		if e.Kind != types.KindBatch {
			continue
		}
		b, err := types.DecodeBatch(e.Data)
		if err != nil {
			t.Fatalf("corrupt batch at %d: %v", idx, err)
		}
		for _, it := range b.Items {
			seen[it.PID]++
			if seen[it.PID] > 1 {
				t.Fatalf("item %s batched twice into the global log", it.PID)
			}
		}
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}
