package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	hraft "github.com/hraft-io/hraft"
)

type nodeMode int

const (
	modeClosed       nodeMode = iota // closed loop at the only member
	modeOpen                         // open loop at the leader, then the ladder
	modeMixed                        // open loop at a follower beside lease reads
	modeReadIndex                    // follower writes; the operation is ReadLinearizable at the leader
	modeReadFollower                 // follower writes; the operation is ReadFollowerLocal at the other follower
)

const (
	openRate     = 1000 // proposals/s, reference phase of fr3_udp_wal_open
	followerRate = 500  // proposals/s at the follower in the mixed and read workloads
	leaseRate    = 1000 // lease reads/s in fr3_udp_wal_mixed
	readers      = 32   // closed-loop readers in the read workloads
	stepP99Ms    = 100  // a ladder step passes with p99 at or under this
	collideRate  = 200  // proposals/s at a second member during the run-in
	runInFor     = 500 * time.Millisecond
)

// ladderRates ascend by about 1.5x from the reference rate. The ladder takes
// ladderShare of the run's time, after the last round's reference phase.
var ladderRates = []float64{1500, 2200, 3300, 5000, 7500}

const ladderShare = 0.3

// nodeBench runs the workloads built from hraft.Node.
type nodeBench struct {
	cfg  runConfig
	size int
	mem  bool // memory storage instead of a WAL
	mode nodeMode

	trc      *tracer
	c        *nodeCluster
	gen      *payloads
	lead     *member
	proposer *member
	reader   *member
}

// tracedPropose is ProposeAsync with, on the traced pass, a span per call.
func tracedPropose(trc *tracer, node string, propose func([]byte) hraft.ProposalID) func([]byte) hraft.ProposalID {
	return func(data []byte) hraft.ProposalID {
		if !trc.enabled() {
			return propose(data)
		}
		start := time.Now()
		pid := propose(data)
		trc.proposeCall(node, start, time.Now(), pid)
		return pid
	}
}

// target is the proposer as the load generator sees it.
func (b *nodeBench) target() loadTarget {
	return loadTarget{
		trackers: []*tracker{b.proposer.tk},
		propose:  tracedPropose(b.trc, string(b.proposer.id), b.proposer.node.ProposeAsync),
	}
}

func (b *nodeBench) setup(dir string, trc *tracer) error {
	b.trc = trc
	b.gen = newPayloads(b.cfg.seed)
	c, err := startNodeCluster(b.size, !b.mem, b.cfg.seed, dir, trc)
	if err != nil {
		return err
	}
	b.c = c
	c.run()
	deadline := time.Now().Add(setupDeadline)
	if b.lead, err = c.awaitLeader(deadline); err != nil {
		return err
	}
	b.proposer, b.reader = b.lead, b.lead
	if b.mode >= modeMixed {
		b.proposer = c.follower(b.lead, 0)
	}
	if b.mode == modeReadFollower {
		b.reader = c.follower(b.lead, 1)
	}
	tk := b.proposer.tk
	tk.roots = trc
	warm := tk.begin()
	closedLoop(b.target(), closedWindow, time.Until(deadline), warmupCommits, b.gen)
	tk.settle(warm, deadline)
	if warm.failed() > 0 {
		return fmt.Errorf("%d of %d warm-up proposals did not commit", warm.failed(), warm.attempted)
	}
	return nil
}

// runIn puts a replicated group into the state steady load leaves it in. A
// Fast Raft leader commits on the fast track only while nothing decided is
// still uncommitted; the first decision that misses its fast quorum puts every
// later one a heartbeat behind on the classic track, and under steady load
// the group never catches up. Left alone that moment comes after a tenth of a
// second or after ten, and identical runs read 12 ms or 32 ms. So for half a
// second before the window the workload's own load runs beside proposals at a
// second member: the two collide over log positions, the losers go to the
// classic track, and the window that follows without a pause sees the lasting
// state.
func (b *nodeBench) runIn() {
	other := b.lead
	if b.proposer == b.lead {
		other = b.c.follower(b.lead, 0)
	}
	rate := float64(followerRate)
	if b.mode == modeOpen {
		rate = openRate
	}
	own, others := b.proposer.tk.begin(), other.tk.begin()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		openLoop(loadTarget{trackers: []*tracker{other.tk}, propose: other.node.ProposeAsync}, collideRate, runInFor, newPayloads(^b.cfg.seed), nil)
	}()
	openLoop(b.target(), rate, runInFor, b.gen, nil)
	wg.Wait()
	// Whatever is still on its way completes into these phases or not at all.
	b.proposer.tk.settle(own, time.Now())
	other.tk.settle(others, time.Now())
}

func (b *nodeBench) halt() { b.c.halt() }

func (b *nodeBench) teardown() []string {
	if b.c == nil {
		return nil
	}
	b.c.stop()
	bad := b.c.check()
	for _, m := range b.c.members {
		id, tk := m.id, m.tk
		if tk.corrupt > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d proposals committed with a payload other than the one proposed", id, tk.corrupt))
		}
		// A proposal re-sent after a lost acknowledgement may commit twice on
		// a replicated group (sessions exist to prevent it); with one member
		// nothing is ever lost, so there a duplicate is a defect.
		if tk.dups > 0 && b.size == 1 {
			bad = append(bad, fmt.Sprintf("%s: %d proposals committed at two indexes", id, tk.dups))
		}
	}
	return bad
}

// counters sums every member's own Metrics(), plus the members' terms so
// that a term change inside the window shows.
func (b *nodeBench) counters() map[string]uint64 {
	sum := map[string]uint64{}
	for _, m := range b.c.members {
		for k, v := range m.node.Metrics() {
			sum[k] += v
		}
		sum[termSum] += uint64(m.node.Term())
	}
	return sum
}

const termSum = "bench.term_sum"

func (b *nodeBench) measure() (*measured, error) {
	dur := b.cfg.part(1)
	tk := b.proposer.tk
	m := &measured{info: map[string]float64{}, layers: map[string]float64{}, wire: b.size > 1}
	if b.size > 1 {
		b.runIn()
	}
	smp := b.trc.startSampler(b)
	defer smp.stop()
	w := openWindow(b.trc, b.counters)
	writes := tk.begin()
	m.ops, m.writes = writes, writes
	var reads *readPhase

	switch b.mode {
	case modeClosed:
		closedLoop(b.target(), closedWindow, dur, 0, b.gen)
		w.stop(m)
		tk.settle(writes, time.Now().Add(failAfter))
	case modeOpen:
		m.lateMs = openLoop(b.target(), openRate, b.cfg.part(1-ladderShare), b.gen, nil)
		w.stop(m)
		tk.settle(writes, time.Now().Add(failAfter))
	default:
		reads = b.runReads(tk, dur, m)
		w.stop(m)
		tk.settle(writes, time.Now().Add(failAfter))
	}
	smp.stop()
	w.end(m)
	m.commits = len(writes.latMs)
	m.chanDepth = float64(b.proposer.chanDepth.Load())
	m.info["fastraft.dup_commits"] = float64(tk.dups)

	if reads != nil {
		if reads.stale > 0 {
			return nil, fmt.Errorf("%d reads returned an index below a commit acknowledged before they were issued", reads.stale)
		}
		b.noteReads(reads, m)
	}
	if b.mode == modeOpen && b.cfg.last() && writes.failed() == 0 {
		m.info["max_rate_ok"] = openRate
		b.ladder(tk, b.cfg.whole(ladderShare)/time.Duration(len(ladderRates)), m)
	}
	return m, nil
}

// runReads drives followerRate proposals/s at the follower for dur beside
// the workload's readers, and returns what the readers saw.
func (b *nodeBench) runReads(tk *tracker, dur time.Duration, m *measured) *readPhase {
	mode, pace, n := hraft.ReadLeaseBased, time.Second/leaseRate, 1
	switch b.mode {
	case modeReadIndex:
		mode, pace, n = hraft.ReadLinearizable, 0, readers
	case modeReadFollower:
		mode, pace, n = hraft.ReadFollowerLocal, 0, readers
	}
	until := time.Now().Add(dur)
	parts := make([]*readPhase, n)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i] = readLoop(b.reader, mode, &tk.maxAcked, until, pace, b.trc)
		}(i)
	}
	m.lateMs = openLoop(b.target(), followerRate, dur, b.gen, nil)
	wg.Wait()
	all := &readPhase{phase: newPhase(failAfter)}
	for _, p := range parts {
		all.phase.merge(p.phase)
		all.stale += p.stale
	}
	return all
}

// noteReads files the reads under the right names: the operation itself in
// the read workloads, a side measurement in the mixed one.
func (b *nodeBench) noteReads(reads *readPhase, m *measured) {
	rs := reads.samples()
	m.layers["readpath.reads_issued"] = float64(reads.attempted)
	switch b.mode {
	case modeMixed:
		fast := 0
		for _, ms := range reads.latMs {
			if ms < 1 {
				fast++
			}
		}
		frac := float64(fast) / float64(max(reads.attempted, 1))
		m.layers["readpath.lease_reads_issued"] = float64(reads.attempted)
		m.layers["readpath.lease_fast_frac"] = frac
		m.info["read_lease_fast_frac"] = frac
		m.info["read_lease_p50_ms"] = percentile(rs, 50)
		m.extra = append(m.extra, reads.phase)
		return
	case modeReadIndex:
		m.layers["readpath.index_ms_p95"] = percentile(rs, 95)
	case modeReadFollower:
		m.layers["readpath.follower_ms_p95"] = percentile(rs, 95)
	}
	// The operation is the read. Its CPU cost is the whole process's, the
	// writes included: what serving these reads beside that write load
	// costs. The writes still count toward attempted and failed.
	m.extra = append(m.extra, m.writes)
	m.ops = reads.phase
	m.info["write_p50_ms"] = percentile(m.writes.samples(), 50)
}

// readPhase is a phase of reads plus the linearizability check's count.
type readPhase struct {
	*phase
	stale int // returned an index below an already acknowledged commit
}

// readLoop issues reads of one mode at a member, back to back (or one every
// pace), until the deadline. floor is the highest commit index acknowledged
// to the writer: a read issued after that acknowledgement must not return
// less.
func readLoop(at *member, mode hraft.ReadConsistency, floor *atomic.Uint64, until time.Time, pace time.Duration, trc *tracer) *readPhase {
	ph := &readPhase{phase: newPhase(failAfter)}
	next := time.Now()
	for time.Now().Before(until) {
		if pace > 0 {
			if wait := time.Until(next); wait > 0 {
				time.Sleep(wait)
			}
			next = next.Add(pace)
		}
		want := floor.Load()
		ctx, cancel := context.WithTimeout(context.Background(), failAfter)
		start := time.Now()
		idx, err := at.node.ReadWith(ctx, mode)
		end := time.Now()
		cancel()
		trc.record("client.read", string(at.id), start, end, hraft.ProposalID{})
		ph.attempted++
		if err == nil && uint64(idx) < want {
			ph.stale++
		}
		ph.done(sinceEpoch(start), end.Sub(start), err == nil)
	}
	return ph
}

// ladder raises the offered rate step by step until a step fails, and
// records the highest rate that passed. A step passes when p99 stays within
// stepP99Ms, at most 0.1% of its proposals fail and the backlog at its end is
// no larger than at its midpoint plus a tenth of a second of arrivals; it is
// cut short as soon as the backlog exceeds half a second of arrivals. The
// ladder is the last thing the cluster does: an overloaded group does not
// recover, so after a failed step it is only torn down.
func (b *nodeBench) ladder(tk *tracker, step time.Duration, m *measured) {
	for _, rate := range ladderRates {
		ph := tk.begin()
		start := time.Now()
		mid, aborted := -1, false
		var cancel atomic.Bool
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			openLoop(b.target(), rate, step, b.gen, func() bool {
				out := tk.outstanding()
				if mid < 0 && time.Since(start) >= step/2 {
					mid = out
				}
				aborted = float64(out) > 0.5*rate
				return aborted || cancel.Load()
			})
		}()
		select {
		case <-finished:
		case <-time.After(step + time.Second):
			// The deadline guard. Past saturation a node spends its ticks
			// re-sending every unresolved proposal and ProposeAsync queues
			// behind them for the host lock, so the submitter cannot even
			// look at its abort condition. Stopping the nodes releases it.
			cancel.Store(true)
			b.c.halt()
			<-finished
			m.info[fmt.Sprintf("ladder_%.0f_p99_ms", rate)] = ph.failMs
			m.info["ladder_hit_deadline"] = rate
			return
		}
		end := tk.outstanding()
		// Whatever is not back within three limits has missed the limit.
		tk.settle(ph, time.Now().Add(3*stepP99Ms*time.Millisecond))
		p99 := percentile(ph.samples(), 99)
		m.info[fmt.Sprintf("ladder_%.0f_p99_ms", rate)] = p99
		if aborted || p99 > stepP99Ms ||
			float64(ph.failed()) > 0.001*float64(ph.attempted) ||
			float64(end) > float64(max(mid, 0))+0.1*rate {
			return
		}
		m.info["max_rate_ok"] = rate
	}
}
