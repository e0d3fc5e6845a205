package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	hraft "github.com/hraft-io/hraft"
)

// Fixed settings: every run of every commit uses these, so two result files
// differ only by the code under test. README.md says why each value.
const (
	payloadBytes  = 128
	heartbeat     = 20 * time.Millisecond
	electionMin   = 200 * time.Millisecond
	electionMax   = 400 * time.Millisecond
	warmupCommits = 200
	closedWindow  = 32              // outstanding proposals, closed loop
	failAfter     = 2 * time.Second // a proposal later than this failed
	setupDeadline = 20 * time.Second
	craftIntra    = 300 * time.Microsecond // injected one-way delay in a cluster
	craftInter    = 25 * time.Millisecond  // and between clusters
	craftGlobalHB = 100 * time.Millisecond
	craftBatch    = 16
	craftInflight = 4
	craftWindow   = 64                      // outstanding proposals, closed loop
	craftOpenRate = 120                     // proposals/s at the proposing cluster, open loop
	craftFlush    = 1500 * time.Millisecond // same load, uncounted, after the fixed-rate phase
	craftSatShare = 0.2                     // of the run: the saturating closed loop after the last round
	// A batch that loses its global slot to another cluster's is re-proposed
	// only after six global heartbeats, and may lose again: global ordering
	// has a tail of seconds that is slowness, not failure.
	craftFailAfter = 10 * time.Second
	commitChanSize = 4096
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// stream is one member's committed stream folded into a hash chain:
// chain[i] digests entries 0..i by (index, PID, payload CRC), so two members
// agree on a common prefix exactly when their chains agree at its last
// position.
type stream struct {
	mu    sync.Mutex
	chain []uint64
	last  hraft.Index
	gaps  int // index did not follow its predecessor
}

func (s *stream) add(e hraft.Entry) {
	h := uint64(crc32.Checksum(e.Data, crcTable))
	h = h*0x9E3779B97F4A7C15 + uint64(e.Index)
	h = h*0x9E3779B97F4A7C15 + e.PID.Seq
	h = h*0x9E3779B97F4A7C15 + uint64(crc32.Checksum([]byte(e.PID.Proposer), crcTable))
	s.mu.Lock()
	if n := len(s.chain); n > 0 {
		h += s.chain[n-1] * 0xC2B2AE3D27D4EB4F
		if e.Index != s.last+1 {
			s.gaps++
		}
	}
	s.last = e.Index
	s.chain = append(s.chain, h)
	s.mu.Unlock()
}

// checkStreams reports every way the members' committed streams disagree.
func checkStreams(names []string, streams []*stream) []string {
	var bad []string
	shortest := -1
	for i, s := range streams {
		s.mu.Lock()
		if s.gaps > 0 {
			bad = append(bad, fmt.Sprintf("%s: committed stream skipped or repeated an index %d times", names[i], s.gaps))
		}
		if shortest < 0 || len(s.chain) < shortest {
			shortest = len(s.chain)
		}
		s.mu.Unlock()
	}
	if shortest <= 0 {
		return bad
	}
	for i := 1; i < len(streams); i++ {
		if streams[i].chain[shortest-1] != streams[0].chain[shortest-1] {
			bad = append(bad, fmt.Sprintf("%s and %s disagree within their first %d committed entries", names[0], names[i], shortest))
		}
	}
	return bad
}

// drain consumes ch until done closes, folding every entry into st and
// passing it to each observer with its arrival time.
func drain(ch <-chan hraft.Entry, done <-chan struct{}, st *stream, depth *atomic.Int64, observers ...func(hraft.Entry, time.Time)) {
	for {
		select {
		case e := <-ch:
			now := time.Now()
			if depth != nil {
				if d := int64(len(ch)) + 1; d > depth.Load() {
					depth.Store(d)
				}
			}
			if st != nil {
				st.add(e)
			}
			for _, fn := range observers {
				fn(e, now)
			}
		case <-done:
			return
		}
	}
}

// member is one Fast Raft site of a benchmark cluster.
type member struct {
	id     hraft.NodeID
	node   *hraft.Node
	wal    hraft.Storage
	stream *stream
	tk     *tracker // completes the proposals made at this member
	// chanDepth is the deepest the Commits channel was seen.
	chanDepth atomic.Int64
}

// nodeCluster is a group of hraft.Nodes over loopback UDP (or a lone member
// with no peers to talk to), each on a group-commit WAL or in memory.
type nodeCluster struct {
	dir     string
	members []*member
	udps    []*hraft.UDPTransport
	done    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
	trc     *tracer
}

// startNodeCluster opens n members, their WALs (if any) under dir. Trace
// options and wrappers come from trc (nil = untraced).
func startNodeCluster(n int, wal bool, seed int64, dir string, trc *tracer) (*nodeCluster, error) {
	c := &nodeCluster{dir: dir, done: make(chan struct{}), trc: trc}
	if wal {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if fs := fsType(dir); fs == "tmpfs" || fs == "ramfs" {
			_ = os.RemoveAll(dir) // the refusal is the error reported
			return nil, fmt.Errorf("%s is on %s, where fsync is free and every WAL number is wrong; run the benchmark from a checkout on a disk", dir, fs)
		}
	}
	peers := make([]hraft.NodeID, n)
	for i := range peers {
		peers[i] = hraft.NodeID(fmt.Sprintf("n%d", i+1))
	}
	for _, id := range peers {
		u, err := hraft.ListenUDP(id, "127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, err
		}
		c.udps = append(c.udps, u)
	}
	for i, u := range c.udps {
		for j, p := range peers {
			if i != j {
				if err := u.AddPeer(p, c.udps[j].LocalAddr()); err != nil {
					c.stop()
					return nil, err
				}
			}
		}
	}
	for i, id := range peers {
		store := hraft.NewMemoryStorage()
		if wal {
			var err error
			store, err = hraft.OpenWALOptions(filepath.Join(dir, string(id)), hraft.WALOptions{
				GroupCommit:   true,
				SyncWindow:    -1,
				FsyncObserver: trc.fsyncObserver(),
			})
			if err != nil {
				c.stop()
				return nil, err
			}
		}
		m := &member{id: id, wal: store, stream: &stream{}, tk: newTracker(id)}
		c.members = append(c.members, m)
		node, err := hraft.NewNode(hraft.Options{
			ID:                 id,
			Peers:              peers,
			Transport:          trc.wrapTransport(string(id), c.udps[i]),
			Storage:            trc.wrapStorage(string(id), store),
			HeartbeatInterval:  heartbeat,
			ElectionTimeoutMin: electionMin,
			ElectionTimeoutMax: electionMax,
			Seed:               seed + int64(i),
			CommitBuffer:       commitChanSize,
			Trace:              trc.nodeTrace(),
		})
		if err != nil {
			c.stop()
			return nil, err
		}
		m.node = node
	}
	return c, nil
}

// run starts draining every member's Commits channel.
func (c *nodeCluster) run() {
	for _, m := range c.members {
		c.wg.Add(1)
		go func(m *member) {
			defer c.wg.Done()
			drain(m.node.Commits(), c.done, m.stream, &m.chanDepth, m.tk.onCommit)
		}(m)
	}
}

// awaitLeader blocks until one member leads and every member agrees on it.
func (c *nodeCluster) awaitLeader(deadline time.Time) (*member, error) {
	for time.Now().Before(deadline) {
		var lead *member
		agreed := true
		for _, m := range c.members {
			if m.node.Role() == hraft.Leader {
				lead = m
			}
		}
		if lead != nil {
			for _, m := range c.members {
				if m.node.Leader() != lead.id {
					agreed = false
				}
			}
			if agreed {
				return lead, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil, errors.New("no leader elected before the set-up deadline")
}

// follower returns the k-th member that is not lead.
func (c *nodeCluster) follower(lead *member, k int) *member {
	for _, m := range c.members {
		if m != lead {
			if k == 0 {
				return m
			}
			k--
		}
	}
	return nil
}

// halt stops every node where it stands; calling it again is harmless.
func (c *nodeCluster) halt() {
	for _, m := range c.members {
		if m.node != nil {
			m.node.Stop()
		}
	}
}

// stop tears the cluster down without draining it: an overloaded group does
// not recover, so nothing here waits on consensus.
func (c *nodeCluster) stop() {
	c.halt()
	for _, u := range c.udps {
		_ = u.Close() // already closed by its node, unless set-up failed
	}
	c.once.Do(func() { close(c.done) })
	c.wg.Wait()
	for _, m := range c.members {
		_ = m.wal.Close() // the directory is deleted next
	}
	_ = os.RemoveAll(c.dir)
}

// check applies the always-on correctness gate to the members' streams.
func (c *nodeCluster) check() []string {
	names := make([]string, len(c.members))
	streams := make([]*stream, len(c.members))
	for i, m := range c.members {
		names[i], streams[i] = string(m.id), m.stream
	}
	return checkStreams(names, streams)
}
