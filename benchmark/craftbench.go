package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	hraft "github.com/hraft-io/hraft"
)

const craftClusters, craftSites = 3, 3

// craftSite is one C-Raft site with its two committed streams.
type craftSite struct {
	id             hraft.NodeID
	node           *hraft.CRaftNode
	local, global  *stream
	tkLocal, tkGbl *tracker
}

// craftBench runs craft3x3_delay.
type craftBench struct {
	cfg runConfig
	trc *tracer

	net      *hraft.InProcNetwork
	clusters []hraft.NodeID
	sites    [][]*craftSite // by cluster
	proposer *craftSite
	gen      *payloads
	done     chan struct{}
	wg       sync.WaitGroup
}

func (b *craftBench) setup(_ string, trc *tracer) (err error) {
	b.trc = trc
	b.gen = newPayloads(b.cfg.seed)
	b.done = make(chan struct{})
	b.net = hraft.NewInProcNetwork(b.cfg.seed)
	clusterOf := map[hraft.NodeID]hraft.NodeID{}
	b.net.Latency = func(from, to hraft.NodeID) time.Duration {
		if clusterOf[from] == clusterOf[to] {
			return craftIntra
		}
		return craftInter
	}
	peers := make([][]hraft.NodeID, craftClusters)
	for c := 0; c < craftClusters; c++ {
		cid := hraft.NodeID(fmt.Sprintf("c%d", c+1))
		b.clusters = append(b.clusters, cid)
		clusterOf[cid] = cid
		for s := 0; s < craftSites; s++ {
			id := hraft.NodeID(fmt.Sprintf("c%ds%d", c+1, s+1))
			peers[c] = append(peers[c], id)
			clusterOf[id] = cid
		}
	}
	b.sites = make([][]*craftSite, craftClusters)
	for c, cid := range b.clusters {
		for s, id := range peers[c] {
			var node *hraft.CRaftNode
			node, err = hraft.NewCRaftNode(hraft.CRaftOptions{
				ID:                 id,
				Cluster:            cid,
				ClusterPeers:       peers[c],
				GlobalClusters:     b.clusters,
				Transport:          trc.wrapTransport(string(id), b.net.Endpoint(id)),
				BatchSize:          craftBatch,
				LocalHeartbeat:     heartbeat,
				GlobalHeartbeat:    craftGlobalHB,
				MaxInflightBatches: craftInflight,
				Seed:               b.cfg.seed + int64(c*craftSites+s),
				CommitBuffer:       commitChanSize,
				Trace:              trc.nodeTrace(),
			})
			if err != nil {
				return err
			}
			site := &craftSite{id: id, node: node, local: &stream{}, global: &stream{},
				tkLocal: newTracker(id), tkGbl: newTracker(id)}
			site.tkGbl.roots, site.tkGbl.failAfter = trc, craftFailAfter
			b.sites[c] = append(b.sites[c], site)
			b.wg.Add(2)
			go func() {
				defer b.wg.Done()
				drain(node.Commits(), b.done, site.local, nil, site.tkLocal.onCommit)
			}()
			go func() {
				defer b.wg.Done()
				drain(node.GlobalCommits(), b.done, site.global, nil, site.tkGbl.onGlobalCommit)
			}()
		}
	}
	b.wg.Add(1)
	go b.route()

	deadline := time.Now().Add(setupDeadline)
	leads := make([]*craftSite, len(b.clusters))
	for c := range b.clusters {
		if leads[c], err = b.awaitClusterLeader(c, deadline); err != nil {
			return err
		}
	}
	ring, err := b.awaitGlobalLeader(deadline)
	if err != nil {
		return err
	}
	// One cluster proposes: the one after the global leader's, at a site
	// that does not lead it, so a proposal crosses every kind of hop and
	// always the same ones. With all three proposing, their batches contend
	// for global slots and a loser waits six global heartbeats to retry:
	// seconds of tail that no two runs share (README, "not covered").
	c := (ring + 1) % len(b.clusters)
	for _, s := range b.sites[c] {
		if s != leads[c] {
			b.proposer = s
			break
		}
	}
	// Warm-up ends on global commits, so it also proves the global instance
	// orders batches. Its last proposals stay behind in a batch that never
	// fills; they are written off.
	local, global := b.proposer.tkLocal.begin(), b.proposer.tkGbl.begin()
	closedLoop(b.target(), craftWindow, time.Until(deadline), warmupCommits, b.gen)
	done := b.proposer.tkGbl.completed(global)
	b.writeOff(local, global)
	if done < warmupCommits {
		return fmt.Errorf("only %d of %d warm-up proposals were globally ordered before the set-up deadline", done, warmupCommits)
	}
	return nil
}

// writeOff expires, without waiting, what two phases of the proposer's
// trackers still have pending.
func (b *craftBench) writeOff(local, global *phase) {
	b.proposer.tkLocal.settle(local, time.Now())
	b.proposer.tkGbl.settle(global, time.Now())
}

// route keeps each cluster's endpoint registered to its current local
// leader, as examples/georeplication does.
func (b *craftBench) route() {
	defer b.wg.Done()
	current := make([]*craftSite, len(b.clusters))
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		for c, cid := range b.clusters {
			for _, s := range b.sites[c] {
				if s.node.IsClusterLeader() {
					if current[c] != s {
						hraft.RegisterClusterEndpoint(b.net, cid, s.node)
						current[c] = s
					}
					break
				}
			}
		}
		select {
		case <-tick.C:
		case <-b.done:
			return
		}
	}
}

// awaitGlobalLeader returns the index of the cluster whose leader leads the
// global instance.
func (b *craftBench) awaitGlobalLeader(deadline time.Time) (int, error) {
	for time.Now().Before(deadline) {
		for c := range b.clusters {
			for _, s := range b.sites[c] {
				if len(s.node.GlobalPeerStatus()) > 0 {
					return c, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, errors.New("the global instance elected no leader before the set-up deadline")
}

func (b *craftBench) awaitClusterLeader(c int, deadline time.Time) (*craftSite, error) {
	for time.Now().Before(deadline) {
		for _, s := range b.sites[c] {
			if s.node.Role() == hraft.Leader && s.node.IsClusterLeader() {
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil, errors.New("a cluster elected no leader before the set-up deadline")
}

// target is the proposer; each proposal completes twice, locally and (the
// completion a closed loop refills on) globally.
func (b *craftBench) target() loadTarget {
	p := b.proposer
	return loadTarget{
		trackers: []*tracker{p.tkLocal, p.tkGbl},
		propose:  tracedPropose(b.trc, string(p.id), p.node.ProposeAsync),
	}
}

func (b *craftBench) counters() map[string]uint64 {
	sum := map[string]uint64{}
	for _, cl := range b.sites {
		for _, s := range cl {
			for k, v := range s.node.Metrics() {
				sum[k] += v
			}
		}
	}
	return sum
}

func (b *craftBench) measure() (*measured, error) {
	m := &measured{info: map[string]float64{}, layers: map[string]float64{}}
	lag := b.trc.startLagSampler(b)
	defer lag.stop()
	p, start := b.proposer, time.Now()
	batches0, items0 := p.tkGbl.batches.Load(), p.tkGbl.items.Load()

	// Phase 1, this round's share of eight tenths of the run: open loop;
	// local and global commit latency at a fixed rate.
	w := openWindow(b.trc, b.counters)
	m.writes, m.ops = p.tkLocal.begin(), p.tkGbl.begin()
	m.lateMs = openLoop(b.target(), craftOpenRate, b.cfg.part(1-craftSatShare), b.gen, nil)
	w.stop(m)
	// Keep the same load coming, uncounted, until phase 1's last proposals
	// are through: with no batch delay a batch waits for later entries to
	// fill it, and behind a saturating load they would wait far longer.
	flushL, flushG := p.tkLocal.begin(), p.tkGbl.begin()
	openLoop(b.target(), craftOpenRate, craftFlush, b.gen, nil)
	p.tkLocal.settle(m.writes, time.Now().Add(failAfter))
	p.tkGbl.settle(m.ops, time.Now().Add(craftFailAfter))

	b.writeOff(flushL, flushG)
	m.commits = len(m.ops.latMs)
	m.extra = []*phase{m.writes}
	ls := m.writes.samples()
	m.info["local_commit_p50_ms"] = percentile(ls, 50)
	m.info["local_commit_p99_ms"] = percentile(ls, 99)
	m.layers["craft.local_commit_p50_ms"] = percentile(ls, 50)

	// Phase 2, the last round's extra: closed loop refilled on global commit,
	// the paper's Fig. 5 quantity in real time. It is reported and not
	// bounded: the loop locks to the global heartbeat in one of two phases and
	// delivers the window in either 160 or 250 ms, whole runs at a time.
	if b.cfg.last() {
		satL, satG := p.tkLocal.begin(), p.tkGbl.begin()
		satStart := time.Now()
		closedLoop(b.target(), craftWindow, b.cfg.whole(craftSatShare), 0, b.gen)
		saturated := float64(p.tkGbl.completed(satG)) / time.Since(satStart).Seconds()
		b.writeOff(satL, satG)
		m.commits += len(satG.latMs)
		m.info["saturated_entries_per_s"] = saturated
		m.layers["craft.saturated_entries_per_s"] = saturated
	}
	lag.stop()
	w.end(m)
	batches, items := float64(p.tkGbl.batches.Load()-batches0), float64(p.tkGbl.items.Load()-items0)
	m.layers["craft.entries_ordered"] = items
	m.layers["craft.items_per_batch"] = ratio(items, batches)
	m.layers["craft.batches_per_s"] = ratio(batches, time.Since(start).Seconds())
	return m, nil
}

func (b *craftBench) halt() {
	for _, cl := range b.sites {
		for _, s := range cl {
			s.node.Stop()
		}
	}
}

func (b *craftBench) teardown() []string {
	if b.done == nil {
		return nil
	}
	b.halt()
	b.net.Close()
	close(b.done)
	b.wg.Wait()
	var bad, gNames []string
	var gStreams []*stream
	for _, cl := range b.sites {
		var names []string
		var streams []*stream
		for _, s := range cl {
			names = append(names, string(s.id))
			streams = append(streams, s.local)
			gNames = append(gNames, string(s.id)+" (global)")
			gStreams = append(gStreams, s.global)
			if n := s.tkLocal.corrupt + s.tkGbl.corrupt; n > 0 {
				bad = append(bad, fmt.Sprintf("%s: %d proposals committed with a payload other than the one proposed", s.id, n))
			}
		}
		bad = append(bad, checkStreams(names, streams)...)
	}
	return append(bad, checkStreams(gNames, gStreams)...)
}
