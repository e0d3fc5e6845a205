package harness

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

// TestPropertyFastRaftSafetyUnderChaos runs many independently seeded
// scenarios that combine message loss, leader crashes, restarts,
// partitions and membership churn under continuous proposal load, and
// asserts the paper's safety property (Definition 2.1) plus election
// safety on every one. The raft/ subtests run the same scenarios on the
// classic mode of the same core (KindRaft: no membership churn there).
func TestPropertyFastRaftSafetyUnderChaos(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runChaosScenario(t, KindFastRaft, seed)
		})
	}
	t.Run("raft", func(t *testing.T) {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			seed := seed
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				t.Parallel()
				runChaosScenario(t, KindRaft, seed)
			})
		}
	})
}

func runChaosScenario(t *testing.T, kind Kind, seed int64) {
	rng := rand.New(rand.NewSource(seed * 7919))
	nodes := fiveNodes()
	c, err := NewCluster(Options{
		Kind:     kind,
		Nodes:    nodes,
		Seed:     seed,
		LossProb: []float64{0, 0.02, 0.05, 0.10}[rng.Intn(4)],
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(30 * time.Second); !ok {
		t.Fatal("no initial leader")
	}
	// Two proposers under closed loop for the whole run.
	for _, p := range []types.NodeID{"n1", "n2"} {
		if _, err := c.StartProposer(ProposerOptions{Node: p, StopAfter: c.Sched.Now() + 60*time.Second, ThinkTime: PacedThink}); err != nil {
			t.Fatal(err)
		}
	}
	// Chaos script: one random fault every ~5 virtual seconds.
	crashed := make(map[types.NodeID]bool)
	for i := 1; i <= 10; i++ {
		at := c.Sched.Now() + time.Duration(i)*5*time.Second
		c.Sched.At(at, func() {
			switch rng.Intn(5) {
			case 0: // crash the current leader
				if h, ok := c.Leader(); ok && len(crashed) < 2 {
					crashed[h.ID()] = true
					c.Crash(h.ID())
				}
			case 1: // crash a random follower
				id := nodes[rng.Intn(len(nodes))]
				if h := c.Host(id); h != nil && h.Alive() && len(crashed) < 2 {
					if l, ok := c.Leader(); !ok || l.ID() != id {
						crashed[id] = true
						c.Crash(id)
					}
				}
			case 2: // restart someone
				for id := range crashed {
					delete(crashed, id)
					if err := c.Restart(id); err != nil {
						t.Errorf("restart %s: %v", id, err)
					}
					break
				}
			case 3: // short partition
				cut := nodes[rng.Intn(len(nodes))]
				rest := make([]types.NodeID, 0, len(nodes)-1)
				for _, id := range nodes {
					if id != cut {
						rest = append(rest, id)
					}
				}
				c.Net.Partition([]types.NodeID{cut}, rest)
				c.Sched.After(3*time.Second, c.Net.Heal)
			case 4: // graceful leave + later rejoin via the join protocol
				id := nodes[2+rng.Intn(3)]
				if h := c.Host(id); h != nil && h.Alive() {
					_ = c.Leave(id)
				}
			}
		})
	}
	c.RunUntil(func() bool { return false }, 70*time.Second)
	for _, err := range c.Safety.Errors() {
		t.Error(err)
	}
	if c.Safety.Committed("") == 0 {
		t.Error("scenario committed nothing at all")
	}
}

// TestPropertyCRaftSafetyUnderChurn subjects a two-cluster C-Raft
// deployment to local leader crashes and loss while both clusters batch
// into the global log, asserting safety on the global log and on every
// cluster's local log.
func TestPropertyCRaftSafetyUnderChurn(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runCraftChurnScenario(t, seed)
		})
	}
}

func runCraftChurnScenario(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed * 104729))
	specs := []ClusterSpec{
		{ID: "cA", Sites: ids("a1", "a2", "a3"), Region: "us-east-1"},
		{ID: "cB", Sites: ids("b1", "b2", "b3"), Region: "eu-west-1"},
	}
	c, err := NewCraftCluster(CraftOptions{
		Clusters: specs,
		Seed:     seed,
		LossProb: []float64{0, 0.02}[rng.Intn(2)],
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.WaitForLeaders(time.Minute) {
		t.Fatal("leaders not elected")
	}
	end := c.Sched.Now() + 90*time.Second
	for _, spec := range specs {
		// Proposers on two sites per cluster to survive crashes.
		for _, site := range spec.Sites[:2] {
			if _, err := c.StartProposer(ProposerOptions{Node: site, StopAfter: end, ThinkTime: PacedThink}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash-and-restart local leaders a few times during the run.
	crashedAt := make(map[types.NodeID]types.NodeID) // cluster -> crashed site
	for i := 1; i <= 5; i++ {
		at := c.Sched.Now() + time.Duration(i)*15*time.Second
		c.Sched.At(at, func() {
			spec := specs[rng.Intn(len(specs))]
			if prev, ok := crashedAt[spec.ID]; ok {
				delete(crashedAt, spec.ID)
				if err := c.Restart(prev); err != nil {
					t.Errorf("restart %s: %v", prev, err)
				}
				return
			}
			if h, ok := c.LocalLeader(spec.ID); ok {
				crashedAt[spec.ID] = h.ID()
				c.Crash(h.ID())
			}
		})
	}
	c.RunUntil(func() bool { return false }, end+10*time.Second)
	for _, err := range c.Safety.Errors() {
		t.Error(err)
	}
	if c.Safety.Committed("global") == 0 {
		t.Error("nothing committed to the global log")
	}
}

// TestPropertyLivenessAfterQuorumRestore checks Definition 2.2 under the
// paper's liveness conditions: after arbitrary crashes, as long as a
// classic quorum is restored and a leader holds long enough, every pending
// proposal eventually commits. It runs on both modes of the core.
func TestPropertyLivenessAfterQuorumRestore(t *testing.T) {
	for _, kind := range []Kind{KindFastRaft, KindRaft} {
		for seed := int64(1); seed <= 10; seed++ {
			testLivenessAfterQuorumRestore(t, kind, seed)
		}
	}
}

func testLivenessAfterQuorumRestore(t *testing.T, kind Kind, seed int64) {
	c, err := NewCluster(Options{Kind: kind, Nodes: fiveNodes(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(30 * time.Second); !ok {
		t.Fatal("no leader")
	}
	// Crash a majority: consensus must stall.
	c.Crash("n3")
	c.Crash("n4")
	c.Crash("n5")
	p, err := c.StartProposer(ProposerOptions{Node: "n1", MaxProposals: 5})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	stalled := p.Completed
	// Restore the quorum: everything must drain.
	if err := c.Restart("n3"); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart("n4"); err != nil {
		t.Fatal(err)
	}
	ok := c.RunUntil(func() bool { return p.Completed >= 5 }, c.Sched.Now()+2*time.Minute)
	if !ok {
		t.Fatalf("%v seed %d: stalled at %d then %d/5 after quorum restore",
			kind, seed, stalled, p.Completed)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}
