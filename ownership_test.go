package hraft_test

import (
	"fmt"
	"testing"
	"time"

	hraft "github.com/hraft-io/hraft"
)

// The ownership rule at the API edge: Propose copies the caller's buffer, so
// a client that reuses one buffer for every proposal, overwriting it as soon
// as the call returns, still sees each value committed intact on every
// member.

const reusedProposals = 8

// proposeReusingBuffer proposes val-0 … val-7 through one buffer,
// overwriting it after every call and once more at the end.
func proposeReusingBuffer(propose func([]byte)) {
	buf := make([]byte, len("val-0"))
	for i := 0; i < reusedProposals; i++ {
		copy(buf, fmt.Sprintf("val-%d", i))
		propose(buf)
	}
	copy(buf, "XXXXX")
}

// expectIntact reads each member's commit stream until every proposed value
// has arrived, failing on a payload that is not one of them.
func expectIntact(t *testing.T, streams []<-chan hraft.Entry) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for m, commits := range streams {
		seen := map[string]bool{}
		for len(seen) < reusedProposals {
			select {
			case e := <-commits:
				if e.Kind != hraft.EntryNormal {
					continue
				}
				var i int
				if n, err := fmt.Sscanf(string(e.Data), "val-%d", &i); n != 1 || err != nil || i >= reusedProposals {
					t.Fatalf("member %d committed %q", m, e.Data)
				}
				seen[string(e.Data)] = true
			case <-deadline:
				t.Fatalf("member %d saw %d of %d values", m, len(seen), reusedProposals)
			}
		}
	}
}

func TestProposeCopiesCallerBuffer(t *testing.T) {
	_, nodes, _ := startCluster(t, 3, 21)
	var streams []<-chan hraft.Entry
	for _, n := range nodes {
		streams = append(streams, n.Commits())
	}
	i := 0
	proposeReusingBuffer(func(b []byte) {
		nodes[i%len(nodes)].ProposeAsync(b)
		i++
	})
	expectIntact(t, streams)
}

func TestCRaftProposeCopiesCallerBuffer(t *testing.T) {
	net := hraft.NewInProcNetwork(21)
	sites := []hraft.NodeID{"a1", "a2", "a3"}
	var nodes []*hraft.CRaftNode
	for i, id := range sites {
		n, err := hraft.NewCRaftNode(hraft.CRaftOptions{
			ID:              id,
			Cluster:         "cA",
			ClusterPeers:    sites,
			GlobalClusters:  []hraft.NodeID{"cA"},
			Transport:       net.Endpoint(id),
			BatchSize:       4,
			LocalHeartbeat:  10 * time.Millisecond,
			GlobalHeartbeat: 40 * time.Millisecond,
			Seed:            int64(21 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		go func() {
			for range n.GlobalCommits() {
			}
		}()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
		net.Close()
	})
	var streams []<-chan hraft.Entry
	for _, n := range nodes {
		streams = append(streams, n.Commits())
	}
	i := 0
	proposeReusingBuffer(func(b []byte) {
		nodes[i%len(nodes)].ProposeAsync(b)
		i++
	})
	expectIntact(t, streams)
}
