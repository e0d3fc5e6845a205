package harness

import (
	"fmt"
	"time"

	"github.com/hraft-io/hraft/internal/simnet"
	"github.com/hraft-io/hraft/internal/stats"
	"github.com/hraft-io/hraft/internal/types"
)

// PacedThink is the think time the time-bounded scenarios (churn, chaos,
// throughput trends) give their closed-loop proposers: half a default
// heartbeat, i.e. at most 20 proposals per proposer and virtual second —
// about twice what the tick-pinned commits of old allowed, and a bound on
// how much work a virtual minute holds.
const PacedThink = 50 * time.Millisecond

// ProposerOptions configures a closed-loop proposer: it proposes one entry,
// waits for it to resolve, then proposes the next — the workload used by
// all of the paper's experiments.
type ProposerOptions struct {
	// Node is the proposing site.
	Node types.NodeID
	// MaxProposals stops the proposer after this many resolutions
	// (0 = unlimited).
	MaxProposals int
	// StopAfter stops the proposer once virtual time passes this instant
	// (0 = never).
	StopAfter time.Duration
	// ThinkTime separates a resolution from the next proposal. Commits land
	// when the deciding vote or ack arrives, so with no think time a closed
	// loop completes one proposal per network round trip (thousands per
	// virtual second on a LAN topology): bound such a proposer by
	// MaxProposals, or give it a think time.
	ThinkTime time.Duration
	// PayloadSize is the entry payload size in bytes (default 16).
	PayloadSize int
}

// Proposer is a running closed-loop proposer.
type Proposer struct {
	sched  *simnet.Scheduler
	host   interface{ Alive() bool }
	submit func(types.NodeID, []byte) (types.ProposalID, error)
	opts   ProposerOptions
	// Series records (completion time, latency) per resolved proposal.
	Series *stats.Series
	// Completed counts resolved proposals.
	Completed int
	seq       int
	stopped   bool
}

// StartProposer attaches a closed-loop proposer to a node.
func (c *Cluster) StartProposer(opts ProposerOptions) (*Proposer, error) {
	return startProposer(c.sim, opts, c.Propose)
}

// startProposer attaches a closed-loop proposer to node opts.Node of s,
// submitting its payloads through propose.
func startProposer[M machine](s *sim[M], opts ProposerOptions, propose func(types.NodeID, []byte) (types.ProposalID, error)) (*Proposer, error) {
	n := s.nodes[opts.Node]
	if n == nil {
		return nil, fmt.Errorf("harness: unknown proposer %s %s", s.noun, opts.Node)
	}
	if opts.PayloadSize == 0 {
		opts.PayloadSize = 16
	}
	p := &Proposer{
		sched:  s.Sched,
		host:   n,
		submit: propose,
		opts:   opts,
		Series: &stats.Series{},
	}
	n.OnResolve = func(_ types.ProposalID, at, latency time.Duration) {
		p.Series.Add(at, latency)
		p.Completed++
		p.next()
	}
	p.propose()
	return p, nil
}

// Stop halts the proposer after the current in-flight proposal.
func (p *Proposer) Stop() { p.stopped = true }

func (p *Proposer) done() bool {
	if p.stopped {
		return true
	}
	if p.opts.MaxProposals > 0 && p.Completed >= p.opts.MaxProposals {
		return true
	}
	if p.opts.StopAfter > 0 && p.sched.Now() >= p.opts.StopAfter {
		return true
	}
	return false
}

func (p *Proposer) next() {
	if p.done() {
		return
	}
	// Without think time this proposes at the same virtual instant as the
	// resolution; scheduling an immediate event keeps stack depth bounded.
	p.sched.After(p.opts.ThinkTime, p.propose)
}

func (p *Proposer) propose() {
	if p.done() {
		return
	}
	if !p.host.Alive() {
		return
	}
	p.seq++
	payload := make([]byte, p.opts.PayloadSize)
	for i := range payload {
		payload[i] = byte(p.seq + i)
	}
	if _, err := p.submit(p.opts.Node, payload); err != nil {
		// Node stopped mid-run; the proposer simply ends.
		p.stopped = true
	}
}

// RunProposals drives a single closed-loop proposer on node until count
// proposals resolve (or the deadline passes), returning the latency
// summary. It is the Figure 3 primitive.
func (c *Cluster) RunProposals(node types.NodeID, count int, deadline time.Duration) (stats.Summary, error) {
	p, err := c.StartProposer(ProposerOptions{Node: node, MaxProposals: count})
	if err != nil {
		return stats.Summary{}, err
	}
	ok := c.RunUntil(func() bool { return p.Completed >= count }, deadline)
	if !ok {
		return stats.Summarize(p.Series.Values()),
			fmt.Errorf("harness: only %d/%d proposals resolved by %s", p.Completed, count, deadline)
	}
	return stats.Summarize(p.Series.Values()), nil
}
