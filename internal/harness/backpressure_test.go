package harness

import (
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

// TestFastRaftProposerBackpressureCapsInflight pins the proposer window: a
// burst of proposals from one node may never have more than
// MaxInflightProposals unresolved proposals broadcast at once — the rest
// queue and drain in order — and every proposal still resolves.
func TestFastRaftProposerBackpressureCapsInflight(t *testing.T) {
	const (
		cap   = 3
		burst = 20
	)
	c, err := NewCluster(Options{
		Kind:                 KindFastRaft,
		Nodes:                fiveNodes(),
		Seed:                 37,
		MaxInflightProposals: cap,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(5 * time.Second); !ok {
		t.Fatal("no leader")
	}
	const proposer = types.NodeID("n2")
	h := c.Host(proposer)

	// Track, at every ProposeEntry delivery from the proposer, how many of
	// its broadcast proposals are still unresolved. The cap bounds this:
	// a proposal is only broadcast once fewer than cap others are in
	// flight, and in-flight ones only leave the set by resolving.
	broadcast := make(map[types.ProposalID]bool)
	maxInflight := 0
	c.Net.OnDeliver = func(env types.Envelope) {
		m, ok := env.Msg.(types.ProposeEntry)
		if !ok || env.From != proposer {
			return
		}
		broadcast[m.Entry.PID] = true
		inflight := 0
		for pid := range broadcast {
			if _, resolved := h.Resolved(pid); !resolved {
				inflight++
			}
		}
		if inflight > maxInflight {
			maxInflight = inflight
		}
	}

	// Fire the burst at one virtual instant.
	pids := make([]types.ProposalID, 0, burst)
	for i := 0; i < burst; i++ {
		pid, err := c.Propose(proposer, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pid)
	}
	fr := h.Machine()
	if q := fr.QueuedProposals(); q == 0 {
		t.Fatal("burst past the cap queued nothing; backpressure inactive")
	}

	// Every proposal must still resolve, in spite of the queue.
	for _, pid := range pids {
		if _, ok := c.AwaitResolution(proposer, pid, c.Sched.Now()+120*time.Second); !ok {
			t.Fatalf("proposal %v never resolved", pid)
		}
	}
	if maxInflight > cap {
		t.Fatalf("observed %d unresolved broadcast proposals in flight, cap is %d", maxInflight, cap)
	}
	if maxInflight == 0 {
		t.Fatal("no proposal traffic observed; scenario broken")
	}
	if q := fr.QueuedProposals(); q != 0 {
		t.Fatalf("queue not drained after resolutions: %d left", q)
	}
	if got := fr.Metrics()["fastraft.proposals_queued"]; got == 0 {
		t.Fatal("proposals_queued metric did not move")
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestCraftBatchBackpressureStillConverges checks liveness under the batch
// window: with MaxInflightBatches=1 a burst of local commits must still
// drain into the global log, one batch at a time.
func TestCraftBatchBackpressureStillConverges(t *testing.T) {
	c, err := NewCraftCluster(CraftOptions{
		Clusters: []ClusterSpec{
			{ID: "c1", Sites: []types.NodeID{"a1", "a2", "a3"}, Region: "us-east"},
			{ID: "c2", Sites: []types.NodeID{"b1", "b2", "b3"}, Region: "eu-west"},
		},
		Seed:               41,
		BatchSize:          2,
		BatchDelay:         300 * time.Millisecond,
		MaxInflightBatches: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.WaitForLeaders(60 * time.Second) {
		t.Fatal("leaders never established")
	}
	const items = 8
	for i := 0; i < items; i++ {
		pid, err := c.Propose("a1", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := c.AwaitResolution("a1", pid, c.Sched.Now()+60*time.Second); !ok {
			t.Fatalf("local proposal %d never resolved", i)
		}
	}
	globalItems := func() int {
		return c.GlobalItemsCommitted(0, c.Sched.Now()+1)
	}
	ok := c.RunUntil(func() bool {
		return globalItems() >= items
	}, c.Sched.Now()+300*time.Second)
	if !ok {
		t.Fatalf("only %d/%d items reached the global log under the batch window",
			globalItems(), items)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}
