// Quickstart: a five-site Fast Raft group in one process.
//
// Five nodes connect over the in-process network, elect a leader, and a
// follower proposes entries that commit on the fast track (two message
// rounds). Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	hraft "github.com/hraft-io/hraft"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	net := hraft.NewInProcNetwork(42)
	defer net.Close()

	peers := []hraft.NodeID{"n1", "n2", "n3", "n4", "n5"}
	nodes := make(map[hraft.NodeID]*hraft.Node, len(peers))
	for i, id := range peers {
		node, err := hraft.NewNode(hraft.Options{
			ID:                 id,
			Peers:              peers,
			Transport:          net.Endpoint(id),
			HeartbeatInterval:  25 * time.Millisecond,
			ElectionTimeoutMin: 100 * time.Millisecond,
			ElectionTimeoutMax: 200 * time.Millisecond,
			Seed:               int64(i + 1),
		})
		if err != nil {
			return err
		}
		defer node.Stop()
		nodes[id] = node
		// Every commit channel must be drained.
		go func(n *hraft.Node) {
			for range n.Commits() {
			}
		}(node)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	proposer := nodes["n2"]
	fmt.Println("proposing five entries from n2 ...")
	for i := 1; i <= 5; i++ {
		payload := fmt.Sprintf("entry-%d", i)
		start := time.Now()
		idx, err := proposer.Propose(ctx, []byte(payload))
		if err != nil {
			return fmt.Errorf("propose %q: %w", payload, err)
		}
		fmt.Printf("  %-10s committed at index %-3d in %v\n",
			payload, idx, time.Since(start).Round(10*time.Microsecond))
	}

	// The leader commits when the deciding vote arrives and tells the
	// proposer at once, which commits on that notification; the other
	// followers' commit indexes follow with the leader's next heartbeat.
	time.Sleep(50 * time.Millisecond)
	leader := proposer.Leader()
	fmt.Printf("\nleader is %s (term %d); commit index on each node:\n", leader, proposer.Term())
	for _, id := range peers {
		fmt.Printf("  %s: commitIndex=%d role=%s\n", id, nodes[id].CommitIndex(), nodes[id].Role())
	}
	return nil
}
