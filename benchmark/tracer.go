package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	hraft "github.com/hraft-io/hraft"
	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/types"
)

// span is one timed call at a layer boundary. pid is the proposal the call's
// argument carried, zero for background work (heartbeats, elections).
type span struct {
	name       string // layer.op
	node       string
	start, end int64 // ns since epoch
	pid        hraft.ProposalID
}

// layerCounts are the counts taken at the same boundaries as the spans,
// summed over the cluster's nodes while the measured window is open.
type layerCounts struct {
	sendMsgs, sendErrs, sendNs, wireBytes int64
	byType                                map[string]int64 // sent, by Msg type
	byLayer                               map[string]int64 // sent, by consensus level
	heartbeats                            int64            // AppendEntries without entries
	appends, appendEntries                int64            // AppendEntries with entries, and their entries
	deliverMsgs, deliverNs                int64
	appendCallUs                          []float64
	fsyncs, fsyncRecords, fsyncBytes      int64
	fsyncMs                               []float64
	lsnWaitMs                             []float64
}

// tracer records spans and counts from wrappers the benchmark puts around
// each node's Transport and Storage and around its own client calls. A nil
// tracer is the untraced pass: every method is a pass-through.
type tracer struct {
	on atomic.Bool // set while the measured window is open

	mu           sync.Mutex
	opened       int64 // when the window last opened
	spans        []span
	n            layerCounts
	proposeUs    []float64 // time inside each ProposeAsync call
	replica      replicaSamples
	globalLagMax float64
}

func newTracer() *tracer {
	t := &tracer{}
	t.n.byType = make(map[string]int64)
	t.n.byLayer = make(map[string]int64)
	return t
}

// nodeTrace enables the nodes' own flight recorder on the traced pass, so
// its stage histograms can be reconciled with the client's clock.
func (t *tracer) nodeTrace() *hraft.TraceOptions {
	if t == nil {
		return nil
	}
	return &hraft.TraceOptions{}
}

// maxSpans bounds the spans kept in memory (and the span file: about 120
// bytes each). A workload that commits tens of thousands of proposals a
// second fills it within seconds; spans, and with them the ledger, then cover
// the first part of the window, while the counts go on to its end.
const maxSpans = 300_000

// add records one span per proposal the call carried (one background span
// when it carried none).
func (t *tracer) add(name, node string, start, end time.Time, pids []hraft.ProposalID) {
	s := span{name: name, node: node, start: sinceEpoch(start), end: sinceEpoch(end)}
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.mu.Unlock()
		return
	}
	if len(pids) == 0 {
		t.spans = append(t.spans, s)
	}
	for _, pid := range pids {
		s.pid = pid
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// record adds the span of one call carrying at most one proposal, while the
// measured window is open.
func (t *tracer) record(name, node string, start, end time.Time, pid hraft.ProposalID) {
	if t == nil || !t.on.Load() {
		return
	}
	if pid.IsZero() {
		t.add(name, node, start, end, nil)
		return
	}
	t.add(name, node, start, end, []hraft.ProposalID{pid})
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// open starts recording: spans and counts taken from here on belong to the
// measured window.
func (t *tracer) open() {
	if t != nil {
		t.mu.Lock()
		t.opened = sinceEpoch(time.Now())
		t.mu.Unlock()
		t.on.Store(true)
	}
}

func (t *tracer) close() {
	if t != nil {
		t.on.Store(false)
	}
}

// proposeCall records the time one ProposeAsync call took: host lock, core
// step and output drain.
func (t *tracer) proposeCall(node string, start, end time.Time, pid hraft.ProposalID) {
	t.add("runtime.propose", node, start, end, []hraft.ProposalID{pid})
	t.mu.Lock()
	t.proposeUs = append(t.proposeUs, float64(end.Sub(start))/float64(time.Microsecond))
	t.mu.Unlock()
}

// root records the client's view of one proposal: due time to commit
// notification. Every other span of the proposal hangs under it.
func (t *tracer) root(pid hraft.ProposalID, dueNs, doneNs int64) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	if dueNs >= t.opened && len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{name: rootSpan, node: string(pid.Proposer), start: dueNs, end: doneNs, pid: pid})
	}
	t.mu.Unlock()
}

// pidsOf lists the proposals a message carries.
func pidsOf(m types.Message) []hraft.ProposalID {
	one := func(p hraft.ProposalID) []hraft.ProposalID {
		if p.IsZero() {
			return nil
		}
		return []hraft.ProposalID{p}
	}
	switch m := m.(type) {
	case types.ProposeEntry:
		return one(m.Entry.PID)
	case types.VoteEntry:
		return one(m.Entry.PID)
	case types.ClientPropose:
		return one(m.Entry.PID)
	case types.CommitNotify:
		return one(m.PID)
	case types.AppendEntries:
		var out []hraft.ProposalID
		for _, e := range m.Entries {
			if !e.PID.IsZero() {
				out = append(out, e.PID)
			}
		}
		return out
	}
	return nil
}

// --- Transport ---------------------------------------------------------------

// tracedTransport wraps one node's Transport: a span and counts around Send
// and around the handler the host installs.
type tracedTransport struct {
	inner hraft.Transport
	t     *tracer
	node  string
	wire  bool // inner serializes envelopes (UDP), so their encoded size is real

	mu      sync.Mutex
	scratch []byte
}

func (t *tracer) wrapTransport(node string, inner hraft.Transport) hraft.Transport {
	if t == nil {
		return inner
	}
	_, wire := inner.(*hraft.UDPTransport)
	return &tracedTransport{inner: inner, t: t, node: node, wire: wire}
}

// Send implements hraft.Transport. Everything read from env is read before
// delegating: the UDP transport takes ownership of pooled entry slices.
func (w *tracedTransport) Send(env hraft.Envelope) error {
	t := w.t
	if !t.on.Load() {
		return w.inner.Send(env)
	}
	pids := pidsOf(env.Msg)
	name := env.Msg.MsgName()
	layer := env.Layer.String()
	entries := -1
	if ae, ok := env.Msg.(types.AppendEntries); ok {
		entries = len(ae.Entries)
	}
	size := 0
	if w.wire {
		w.mu.Lock()
		if buf, err := types.AppendEnvelope(w.scratch[:0], env); err == nil {
			size, w.scratch = len(buf), buf[:0]
		}
		w.mu.Unlock()
	}
	start := time.Now()
	err := w.inner.Send(env)
	end := time.Now()
	t.add("udpnet.send", w.node, start, end, pids)
	t.mu.Lock()
	t.n.sendMsgs++
	t.n.sendNs += int64(end.Sub(start))
	t.n.wireBytes += int64(size)
	t.n.byType[name]++
	t.n.byLayer[layer]++
	if err != nil {
		t.n.sendErrs++
	}
	switch {
	case entries == 0:
		t.n.heartbeats++
	case entries > 0:
		t.n.appends++
		t.n.appendEntries += int64(entries)
	}
	t.mu.Unlock()
	return err
}

// SetHandler implements hraft.Transport.
func (w *tracedTransport) SetHandler(h func(hraft.Envelope)) {
	if h == nil {
		w.inner.SetHandler(nil)
		return
	}
	t := w.t
	w.inner.SetHandler(func(env hraft.Envelope) {
		if !t.on.Load() {
			h(env)
			return
		}
		pids := pidsOf(env.Msg)
		start := time.Now()
		h(env)
		end := time.Now()
		t.add("runtime.deliver", w.node, start, end, pids)
		t.mu.Lock()
		t.n.deliverMsgs++
		t.n.deliverNs += int64(end.Sub(start))
		t.mu.Unlock()
	})
}

// Close implements hraft.Transport.
func (w *tracedTransport) Close() error { return w.inner.Close() }

// --- Storage -----------------------------------------------------------------

// tracedStorage wraps one node's group-commit store. It embeds the Grouped
// interface, not the WAL, so AsGrouped still sees group commit while
// SetFsyncObserver stays hidden: the node's recorder cannot displace the
// observer the benchmark installed at open.
type tracedStorage struct {
	storage.Grouped
	t    *tracer
	node string

	mu      sync.Mutex
	waiting []lsnWait // appends accepted and not yet durable, ascending LSN
}

type lsnWait struct {
	lsn uint64
	at  time.Time
	pid hraft.ProposalID
}

func (t *tracer) wrapStorage(node string, s hraft.Storage) hraft.Storage {
	g := storage.AsGrouped(s)
	if t == nil || g == nil {
		return s
	}
	return &tracedStorage{Grouped: g, t: t, node: node}
}

// fsyncObserver is installed at WAL open on the traced pass.
func (t *tracer) fsyncObserver() func(records, bytes int, took time.Duration) {
	if t == nil {
		return nil
	}
	return func(records, bytes int, took time.Duration) {
		if !t.on.Load() {
			return
		}
		t.mu.Lock()
		t.n.fsyncs++
		t.n.fsyncRecords += int64(records)
		t.n.fsyncBytes += int64(bytes)
		t.n.fsyncMs = append(t.n.fsyncMs, float64(took)/float64(time.Millisecond))
		t.mu.Unlock()
	}
}

// AppendEntry implements storage.Storage.
func (s *tracedStorage) AppendEntry(e hraft.Entry) error {
	if !s.t.on.Load() {
		return s.Grouped.AppendEntry(e)
	}
	start := time.Now()
	err := s.Grouped.AppendEntry(e)
	end := time.Now()
	s.t.record("storage.append", s.node, start, end, e.PID)
	s.t.mu.Lock()
	s.t.n.appendCallUs = append(s.t.n.appendCallUs, float64(end.Sub(start))/float64(time.Microsecond))
	s.t.mu.Unlock()
	s.mu.Lock()
	s.waiting = append(s.waiting, lsnWait{lsn: s.Grouped.LastLSN(), at: end, pid: e.PID})
	s.mu.Unlock()
	return err
}

// SetHardState implements storage.Storage.
func (s *tracedStorage) SetHardState(hs storage.HardState) error {
	start := time.Now()
	err := s.Grouped.SetHardState(hs)
	s.t.record("storage.hardstate", s.node, start, time.Now(), hraft.ProposalID{})
	return err
}

// TruncateSuffix implements storage.Storage.
func (s *tracedStorage) TruncateSuffix(idx hraft.Index) error {
	start := time.Now()
	err := s.Grouped.TruncateSuffix(idx)
	s.t.record("storage.truncate", s.node, start, time.Now(), hraft.ProposalID{})
	return err
}

// OnDurable implements storage.Grouped: the node's callback is kept, and
// every append the new horizon covers gets its accepted→durable wait stamped.
func (s *tracedStorage) OnDurable(fn func(lsn uint64)) {
	s.Grouped.OnDurable(func(lsn uint64) {
		now := time.Now()
		s.mu.Lock()
		k := 0
		for k < len(s.waiting) && s.waiting[k].lsn <= lsn {
			k++
		}
		done := append([]lsnWait(nil), s.waiting[:k]...)
		s.waiting = s.waiting[k:]
		s.mu.Unlock()
		for _, w := range done {
			s.t.record("durable.wait", s.node, w.at, now, w.pid)
		}
		if len(done) > 0 && s.t.on.Load() {
			s.t.mu.Lock()
			for _, w := range done {
				s.t.n.lsnWaitMs = append(s.t.n.lsnWaitMs, float64(now.Sub(w.at))/float64(time.Millisecond))
			}
			s.t.mu.Unlock()
		}
		fn(lsn)
	})
}

// --- Ledger ------------------------------------------------------------------

// ledger splits the mean client latency of the committed proposals among the
// layers whose spans cover it. Each instant of a proposal's propose→commit
// interval goes to the most specific layer busy with that proposal anywhere
// in the cluster at that instant (storage call, then transport send, then
// host propose/deliver, then the wait for fsync); what no span covers is
// timer, scheduler and kernel wait. The rows sum to the client mean because
// every instant is counted exactly once.
type ledger struct {
	roots                                               int
	clientUs, runtimeUs, udpnetUs, storageUs, durableUs float64
}

func (l ledger) uncoveredUs() float64 {
	return l.clientUs - l.runtimeUs - l.udpnetUs - l.storageUs - l.durableUs
}

func (l ledger) coverage() float64 {
	if l.clientUs == 0 {
		return 0
	}
	return 1 - l.uncoveredUs()/l.clientUs
}

// layerRank orders the ledger's layers from least to most specific; 0 is a
// span the ledger does not attribute.
func layerRank(name string) int {
	switch name {
	case "durable.wait":
		return 1
	case "runtime.deliver", "runtime.propose":
		return 2
	case "udpnet.send":
		return 3
	case "storage.append":
		return 4
	}
	return 0
}

const rootSpan = "client.commit"

// buildLedger computes the ledger over every root span in spans.
func buildLedger(spans []span) ledger {
	byPID := make(map[hraft.ProposalID][]int)
	for i, s := range spans {
		if !s.pid.IsZero() {
			byPID[s.pid] = append(byPID[s.pid], i)
		}
	}
	var l ledger
	var sums [5]float64
	var cuts []int64
	for _, idxs := range byPID {
		root := -1
		for _, i := range idxs {
			if spans[i].name == rootSpan {
				root = i
			}
		}
		if root < 0 {
			continue
		}
		lo, hi := spans[root].start, spans[root].end
		cuts = append(cuts[:0], lo, hi)
		for _, i := range idxs {
			if s := spans[i]; layerRank(s.name) > 0 && s.end > lo && s.start < hi {
				cuts = append(cuts, max(s.start, lo), min(s.end, hi))
			}
		}
		sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
		for c := 0; c+1 < len(cuts); c++ {
			a, b := cuts[c], cuts[c+1]
			if a == b {
				continue
			}
			rank := 0
			for _, i := range idxs {
				if s := spans[i]; s.start <= a && s.end >= b {
					rank = max(rank, layerRank(s.name))
				}
			}
			sums[rank] += float64(b-a) / 1e3
		}
		l.roots++
		l.clientUs += float64(hi-lo) / 1e3
	}
	if l.roots > 0 {
		n := float64(l.roots)
		l.clientUs /= n
		l.durableUs, l.runtimeUs, l.udpnetUs, l.storageUs = sums[1]/n, sums[2]/n, sums[3]/n, sums[4]/n
	}
	return l
}

// --- Span file ---------------------------------------------------------------

type spanRecord struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = none
	Name    string  `json:"name"`
	Node    string  `json:"node"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Op      string  `json:"op"`
}

// writeSpans writes one JSON object per span to dir/trace-<workload>.jsonl.
// A span's parent is the tightest span of the same proposal on the same node
// that contains it, else the proposal's root (the client's propose→commit),
// else none; background spans have no parent.
func (t *tracer) writeSpans(dir, workload string) (string, error) {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	roots := make(map[hraft.ProposalID]int)
	type nodeOp struct {
		node string
		pid  hraft.ProposalID
	}
	byKey := make(map[nodeOp][]int)
	for i, s := range spans {
		if s.pid.IsZero() {
			continue
		}
		if s.name == rootSpan {
			roots[s.pid] = i
		}
		k := nodeOp{s.node, s.pid}
		byKey[k] = append(byKey[k], i)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		rec := spanRecord{
			ID: i + 1, Name: s.name, Node: s.node, Op: "background",
			StartUs: float64(s.start) / 1e3, EndUs: float64(s.end) / 1e3,
		}
		if !s.pid.IsZero() {
			rec.Op = fmt.Sprintf("%s/%d", s.pid.Proposer, s.pid.Seq)
			best := -1
			for _, j := range byKey[nodeOp{s.node, s.pid}] {
				p := spans[j]
				if j == i || p.name == rootSpan || p.start > s.start || p.end < s.end || (p.start == s.start && p.end == s.end && j > i) {
					continue
				}
				if best < 0 || p.end-p.start < spans[best].end-spans[best].start {
					best = j
				}
			}
			if r, ok := roots[s.pid]; best < 0 && ok && r != i {
				best = r
			}
			rec.Parent = best + 1
		}
		if err := enc.Encode(rec); err != nil {
			_ = f.Close() // the encode error is the one reported
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one reported
		return "", err
	}
	return path, f.Close()
}
