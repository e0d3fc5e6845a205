package main

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	hraft "github.com/hraft-io/hraft"
)

// payloads makes the proposals' contents from the workload seed: a pool of
// random 128-byte blocks, each use stamped with a running counter so no two
// proposals carry the same bytes.
type payloads struct {
	pool [][]byte
	n    uint64
}

func newPayloads(seed int64) *payloads {
	rng := rand.New(rand.NewSource(seed))
	p := &payloads{pool: make([][]byte, 256)}
	for i := range p.pool {
		p.pool[i] = make([]byte, payloadBytes)
		rng.Read(p.pool[i])
	}
	return p
}

func (p *payloads) next() []byte {
	b := make([]byte, payloadBytes)
	copy(b, p.pool[p.n%uint64(len(p.pool))])
	binary.LittleEndian.PutUint64(b, p.n)
	p.n++
	return b
}

// epoch is the origin of every instant the benchmark stores as a number.
var epoch = time.Now()

func sinceEpoch(t time.Time) int64 { return int64(t.Sub(epoch)) }

// phase collects what one measured stretch of one tracker saw.
type phase struct {
	dueNs     []int64   // when each completed operation was due (or called), since epoch
	latMs     []float64 // and how long after that it completed; parallel to dueNs
	failedNs  []int64   // when each failed operation was due
	attempted int
	pending   int
	failMs    float64 // the cut-off, which a failure is counted at
}

func (ph *phase) failed() int { return len(ph.failedNs) }

// done records one operation: completed within the cut-off, or failed.
func (ph *phase) done(dueNs int64, lat time.Duration, ok bool) {
	if ms := float64(lat) / float64(time.Millisecond); ok && ms <= ph.failMs {
		ph.dueNs, ph.latMs = append(ph.dueNs, dueNs), append(ph.latMs, ms)
	} else {
		ph.failedNs = append(ph.failedNs, dueNs)
	}
}

// samples returns the phase's latencies with every failure counted at the
// failure cut-off, so a failed operation misses every latency limit.
func (ph *phase) samples() []float64 {
	s := append([]float64(nil), ph.latMs...)
	for range ph.failedNs {
		s = append(s, ph.failMs)
	}
	return sortedCopy(s)
}

func newPhase(cutoff time.Duration) *phase {
	return &phase{failMs: float64(cutoff) / float64(time.Millisecond)}
}

// merge folds from's operations into ph.
func (ph *phase) merge(from *phase) {
	ph.dueNs = append(ph.dueNs, from.dueNs...)
	ph.latMs = append(ph.latMs, from.latMs...)
	ph.failedNs = append(ph.failedNs, from.failedNs...)
	ph.attempted += from.attempted
}

type pendingOp struct {
	due int64 // ns since epoch
	crc uint32
	ph  *phase
}

// tracker matches one proposer's operations to their completions. The
// submitter registers each proposal under the ProposalID the node returned;
// the collector completes it when the entry arrives on the proposer's
// committed stream. Either side may get there first.
type tracker struct {
	proposer  hraft.NodeID
	failAfter time.Duration // an operation slower than this failed

	mu      sync.Mutex
	pending map[uint64]pendingOp
	early   map[uint64]int64 // completed before it was registered
	seen    map[uint64]struct{}
	cur     *phase
	dups    int // one ProposalID completed at two positions
	corrupt int // committed payload differs from the proposed one

	release func() // called once per completion; a closed loop refills from it

	// maxAcked is the highest commit index a completion carried: what a
	// linearizable read issued afterwards must not fall below.
	maxAcked atomic.Uint64
	// batches and items count the global batches seen and the entries in
	// them (C-Raft global stream only).
	batches, items atomic.Int64
	// roots, when set, receives each completed operation as the root span of
	// its proposal.
	roots *tracer
}

func newTracker(proposer hraft.NodeID) *tracker {
	return &tracker{
		proposer:  proposer,
		failAfter: failAfter,
		pending:   make(map[uint64]pendingOp),
		early:     make(map[uint64]int64),
		seen:      make(map[uint64]struct{}),
		cur:       newPhase(failAfter),
	}
}

// begin opens a new phase; operations registered from now on count there.
func (tk *tracker) begin() *phase {
	ph := newPhase(tk.failAfter)
	tk.mu.Lock()
	tk.cur = ph
	tk.mu.Unlock()
	return ph
}

// register records a submitted operation due at the given instant.
func (tk *tracker) register(seq uint64, due time.Time, data []byte) {
	op := pendingOp{due: sinceEpoch(due), crc: crc32.Checksum(data, crcTable)}
	tk.mu.Lock()
	op.ph = tk.cur
	op.ph.attempted++
	if at, ok := tk.early[seq]; ok {
		delete(tk.early, seq)
		tk.finishLocked(seq, op, at)
	} else {
		op.ph.pending++
		tk.pending[seq] = op
	}
	tk.mu.Unlock()
}

func (tk *tracker) finishLocked(seq uint64, op pendingOp, at int64) {
	op.ph.done(op.due, time.Duration(at-op.due), true)
	tk.roots.root(hraft.ProposalID{Proposer: tk.proposer, Seq: seq}, op.due, at)
}

// complete records that the operation seq finished at the given instant with
// the given payload, at commit index idx.
func (tk *tracker) complete(seq uint64, data []byte, at time.Time, idx hraft.Index) {
	var release func()
	tk.mu.Lock()
	if _, dup := tk.seen[seq]; dup {
		tk.dups++
	} else {
		tk.seen[seq] = struct{}{}
		release = tk.release
		if op, ok := tk.pending[seq]; ok {
			delete(tk.pending, seq)
			op.ph.pending--
			if op.crc != crc32.Checksum(data, crcTable) {
				tk.corrupt++
			}
			tk.finishLocked(seq, op, sinceEpoch(at))
		} else {
			tk.early[seq] = sinceEpoch(at)
		}
	}
	tk.mu.Unlock()
	for {
		old := tk.maxAcked.Load()
		if uint64(idx) <= old || tk.maxAcked.CompareAndSwap(old, uint64(idx)) {
			break
		}
	}
	if release != nil {
		release()
	}
}

// onRelease installs (or with nil removes) the completion hook.
func (tk *tracker) onRelease(fn func()) {
	tk.mu.Lock()
	tk.release = fn
	tk.mu.Unlock()
}

// seenCount is the number of distinct operations completed so far.
func (tk *tracker) seenCount() int {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	return len(tk.seen)
}

// completed is the number of ph's operations finished so far.
func (tk *tracker) completed(ph *phase) int {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	return len(ph.latMs)
}

// onCommit is the committed-stream observer for a Fast Raft proposer.
func (tk *tracker) onCommit(e hraft.Entry, at time.Time) {
	if e.PID.Proposer == tk.proposer && e.Kind == hraft.EntryNormal {
		tk.complete(e.PID.Seq, e.Data, at, e.Index)
	}
}

// onGlobalCommit is the observer for a C-Raft proposer's global stream: an
// operation completes when a batch carrying it is globally ordered.
func (tk *tracker) onGlobalCommit(e hraft.Entry, at time.Time) {
	if e.Kind != hraft.EntryBatch {
		return
	}
	b, err := hraft.DecodeBatch(e.Data)
	if err != nil {
		tk.mu.Lock()
		tk.corrupt++
		tk.mu.Unlock()
		return
	}
	tk.batches.Add(1)
	tk.items.Add(int64(len(b.Items)))
	for _, it := range b.Items {
		if it.PID.Proposer == tk.proposer {
			tk.complete(it.PID.Seq, it.Data, at, e.Index)
		}
	}
}

// outstanding is the number of registered operations not yet completed.
func (tk *tracker) outstanding() int {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	return len(tk.pending)
}

// settle waits until ph has nothing pending or deadline passes, then counts
// what is left as failed. Expired operations stay out of every later phase.
func (tk *tracker) settle(ph *phase, deadline time.Time) {
	for {
		tk.mu.Lock()
		left := ph.pending
		tk.mu.Unlock()
		if left == 0 || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	tk.mu.Lock()
	for seq, op := range tk.pending {
		if op.ph == ph {
			delete(tk.pending, seq)
			ph.pending--
			ph.failedNs = append(ph.failedNs, op.due)
		}
	}
	tk.mu.Unlock()
}

// loadTarget is one proposer as the generator sees it.
type loadTarget struct {
	propose  func([]byte) hraft.ProposalID
	trackers []*tracker // every tracker that completes this proposer's operations
}

func (t loadTarget) submit(data []byte, due time.Time) {
	pid := t.propose(data)
	for _, tk := range t.trackers {
		tk.register(pid.Seq, due, data)
	}
}

// openLoop proposes at target on a fixed schedule, rate operations per
// second for dur, whatever the system does with them. Each operation is timed
// from the instant it was due, so a stall delays nothing but shows in every
// later latency; lateMs is how late the submitter itself ran. stop, polled
// between operations, ends the loop early.
func openLoop(target loadTarget, rate float64, dur time.Duration, gen *payloads, stop func() bool) (lateMs []float64) {
	gap := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	lateMs = make([]float64, 0, int(dur/gap)+1)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * gap)
		if due.Sub(start) >= dur || (stop != nil && stop()) {
			return lateMs
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lateMs = append(lateMs, float64(time.Since(due))/float64(time.Millisecond))
		target.submit(gen.next(), due)
	}
}

// closedLoop keeps window operations outstanding at target: each completion
// (its last tracker releasing) admits one more. It ends after dur, or once
// maxDone operations have completed when maxDone is positive. Latency is
// timed from the call.
func closedLoop(target loadTarget, window int, dur time.Duration, maxDone int, gen *payloads) {
	ready := make(chan struct{}, window) // one slot per admissible operation
	var done atomic.Int64
	last := target.trackers[len(target.trackers)-1]
	last.onRelease(func() {
		done.Add(1)
		select {
		case ready <- struct{}{}:
		default: // a completion from before this loop; it holds no slot
		}
	})
	defer last.onRelease(nil)
	for w := 0; w < window; w++ {
		ready <- struct{}{}
	}
	end := time.NewTimer(dur)
	defer end.Stop()
	for maxDone <= 0 || done.Load() < int64(maxDone) {
		select {
		case <-ready:
			target.submit(gen.next(), time.Now())
		case <-end.C:
			return
		}
	}
}

// cpuMs returns the CPU time the process has used so far, all threads, from
// CLOCK_PROCESS_CPUTIME_ID, which the scheduler keeps to the nanosecond.
// getrusage will not do: kernels built with tick accounting sample it at the
// timer tick, and a workload driven by 20 ms timers aliases with that tick
// (identical runs differed by a factor of two).
func cpuMs() float64 {
	const clockProcessCPUTime = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error()) // Linux has had this clock since 2.6.12
	}
	return float64(ts.Sec)*1e3 + float64(ts.Nsec)/1e6
}
