package simnet

import (
	"math/rand"

	"github.com/hraft-io/hraft/internal/types"
)

// Stats counts network activity for experiment reports.
type Stats struct {
	// Sent counts messages handed to the network.
	Sent uint64
	// Delivered counts messages that reached a registered handler.
	Delivered uint64
	// Dropped counts messages lost to random loss.
	Dropped uint64
	// Duplicated counts messages delivered twice.
	Duplicated uint64
	// Cut counts messages blocked by partitions.
	Cut uint64
	// Unroutable counts messages to unregistered destinations.
	Unroutable uint64
}

// Network simulates asynchronous, lossy message passing between registered
// nodes. All randomness comes from the provided source, so runs are fully
// deterministic given a seed.
type Network struct {
	sched *Scheduler
	rng   *rand.Rand
	topo  *Topology

	// LossProb is the independent drop probability per message in [0,1).
	LossProb float64
	// DupProb is the independent probability that a message is delivered
	// twice (UDP may duplicate datagrams; the protocols are idempotent).
	DupProb float64
	// OnDeliver, when set, observes every envelope just before it reaches
	// its handler (after latency, loss and partitions). Tests use it to
	// assert on the traffic a node actually receives.
	OnDeliver func(env types.Envelope)

	handlers map[types.NodeID]func(types.Envelope)
	// blocked holds directed node pairs that cannot communicate
	// (partitions).
	blocked map[[2]types.NodeID]struct{}

	stats Stats
}

// NewNetwork builds a network over the scheduler with the given topology
// (nil means a single implicit region) and seed.
func NewNetwork(sched *Scheduler, topo *Topology, seed int64) *Network {
	if topo == nil {
		topo = NewTopology()
	}
	return &Network{
		sched:    sched,
		rng:      rand.New(rand.NewSource(seed)),
		topo:     topo,
		handlers: make(map[types.NodeID]func(types.Envelope)),
		blocked:  make(map[[2]types.NodeID]struct{}),
	}
}

// Rand exposes the network's deterministic random source so harness
// components share one stream.
func (n *Network) Rand() *rand.Rand { return n.rng }

// Scheduler returns the underlying virtual-time scheduler.
func (n *Network) Scheduler() *Scheduler { return n.sched }

// Topology returns the latency topology.
func (n *Network) Topology() *Topology { return n.topo }

// Register installs the delivery handler for a node. Re-registering
// replaces the handler (a restarted node).
func (n *Network) Register(id types.NodeID, h func(types.Envelope)) {
	n.handlers[id] = h
}

// Unregister removes a node; in-flight and future messages to it are
// dropped. Used for crashes and silent leaves.
func (n *Network) Unregister(id types.NodeID) {
	delete(n.handlers, id)
}

// Registered reports whether the node currently has a handler.
func (n *Network) Registered(id types.NodeID) bool {
	_, ok := n.handlers[id]
	return ok
}

// Block cuts the directed link a→b.
func (n *Network) Block(a, b types.NodeID) { n.blocked[[2]types.NodeID{a, b}] = struct{}{} }

// Unblock restores the directed link a→b.
func (n *Network) Unblock(a, b types.NodeID) { delete(n.blocked, [2]types.NodeID{a, b}) }

// Partition cuts every link between the two groups, both directions.
func (n *Network) Partition(groupA, groupB []types.NodeID) {
	for _, a := range groupA {
		for _, b := range groupB {
			n.Block(a, b)
			n.Block(b, a)
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() { n.blocked = make(map[[2]types.NodeID]struct{}) }

// Stats returns a copy of the counters.
func (n *Network) Stats() Stats { return n.stats }

// Send routes one envelope: it may drop it (loss or partition), then
// schedules delivery after a sampled one-way latency. The message's slices
// are copied (types.CloneMessage); its read-only payloads are shared.
func (n *Network) Send(env types.Envelope) {
	n.stats.Sent++
	if _, cut := n.blocked[[2]types.NodeID{env.From, env.To}]; cut {
		n.stats.Cut++
		return
	}
	if n.LossProb > 0 && n.rng.Float64() < n.LossProb {
		n.stats.Dropped++
		return
	}
	copies := 1
	if n.DupProb > 0 && n.rng.Float64() < n.DupProb {
		copies = 2
		n.stats.Duplicated++
	}
	for i := 0; i < copies; i++ {
		c := env
		c.Msg = types.CloneMessage(env.Msg)
		delay := n.topo.Latency(string(env.From), string(env.To), n.rng)
		n.sched.After(delay, func() {
			h, ok := n.handlers[c.To]
			if !ok {
				n.stats.Unroutable++
				return
			}
			n.stats.Delivered++
			if n.OnDeliver != nil {
				n.OnDeliver(c)
			}
			h(c)
		})
	}
}
