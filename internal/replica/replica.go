// Package replica is the shared per-peer replication engine used by every
// consensus core (classic Raft, Fast Raft, and through Fast Raft both
// C-Raft levels): progress tracking, append-round dispatch, flow control
// and chunked snapshot streaming.
//
// The design follows etcd's Progress/ProgressSnapshot shape. Each peer is a
// small state machine:
//
//   - probe:     the leader is still locating the peer's log end. Entries
//     are sent anchored at Next every round, but Next only advances on an
//     acknowledgment, so a wrong guess costs one round, not a flood.
//   - replicate: the peer is caught up and acknowledging. Next advances
//     optimistically as appends are sent, letting catch-up pipeline across
//     round trips, bounded by an inflight window of MaxInflightBytes
//     outstanding encoded entry bytes (with MaxInflight messages as the
//     secondary cap). A full window downgrades the round to a plain
//     heartbeat.
//   - snapshot:  the entries the peer needs are compacted away. The leader
//     streams its snapshot — in MaxChunk-sized chunks when configured —
//     and sends no appends until the install is acknowledged. The
//     pending-install flag plus a resend timeout stop the stall-and-flood
//     behavior of re-sending the full image every broadcast round.
//
// The Tracker owns the peer map and, since the dispatch hoist, the whole
// append-round/heartbeat protocol: AppendMessage and HeartbeatMessage
// build the AppendEntries traffic for a round, parameterized over a
// LogView (last-index/term/entry-range accessors) over the part of the log
// a core replicates (Fast Raft's leader-approved prefix). It
// answers the quorum questions commit evaluation asks and plans snapshot
// chunk transmission. The Reassembler is the follower-side counterpart
// that rebuilds a chunked stream into a Snapshot.
//
// Retransmission timing is adaptive: each Progress keeps an EWMA estimate
// of the peer's acknowledgment round trip (Jacobson/Karels srtt + 4*rttvar)
// and both the append stall-recovery probe and the pending-snapshot resend
// fire after that estimate, clamped between the heartbeat interval and the
// election timeout — fast links retransmit quickly, slow links are not
// flooded with duplicates.
//
// Everything here is sans-io and deterministic: the cores decide when a
// round happens and own message transmission; this package decides what
// may be sent to whom, and builds it.
package replica

import (
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"github.com/hraft-io/hraft/internal/quorum"
	"github.com/hraft-io/hraft/internal/stats"
	"github.com/hraft-io/hraft/internal/types"
)

// State is a peer's replication state.
type State uint8

const (
	// StateProbe sends conservatively while locating the peer's log end.
	StateProbe State = iota + 1
	// StateReplicate pipelines appends optimistically under a window.
	StateReplicate
	// StateSnapshot streams a snapshot; appends are suspended.
	StateSnapshot
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateProbe:
		return "probe"
	case StateReplicate:
		return "replicate"
	case StateSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Counter names emitted by the tracker (exposed through Node.Metrics).
const (
	// CounterAppendsThrottled counts rounds where a full inflight window
	// downgraded an append to a heartbeat.
	CounterAppendsThrottled = "replica.appends_throttled"
	// CounterBytesThrottled counts appends whose entry payload was cut
	// short by the byte budget (the remainder ships after acks free room).
	CounterBytesThrottled = "replica.appends_byte_limited"
	// CounterChunksSent counts first-transmission snapshot chunks.
	CounterChunksSent = "replica.snapshot_chunks_sent"
	// CounterChunksResent counts snapshot chunks re-sent after a resend
	// timeout rewound the cursor.
	CounterChunksResent = "replica.snapshot_chunks_resent"
	// CounterFullSent counts unchunked full-snapshot transmissions.
	CounterFullSent = "replica.snapshot_full_sent"
	// CounterFullResent counts unchunked full-snapshot re-transmissions
	// after the resend timeout.
	CounterFullResent = "replica.snapshot_full_resent"
	// CounterPendingRounds counts rounds where a pending install suppressed
	// any snapshot transmission (the redundant sends the old cores made).
	CounterPendingRounds = "replica.snapshot_pending_rounds"
	// CounterStreams counts snapshot transfers started.
	CounterStreams = "replica.snapshot_streams_started"
	// CounterStreamsDone counts snapshot transfers acknowledged complete.
	CounterStreamsDone = "replica.snapshot_streams_completed"
	// CounterStreamsResumed counts snapshot transfers continued from a
	// follower-reported offset (a new leader carrying on its predecessor's
	// stream instead of restarting from byte 0).
	CounterStreamsResumed = "replica.snapshot_streams_resumed"
	// CounterChunksReceived counts snapshot chunks ingested on the
	// follower side (incremented by the cores, which own the Reassembler).
	CounterChunksReceived = "replica.snapshot_chunks_received"
	// CounterInstalls counts snapshots installed on the follower side.
	CounterInstalls = "replica.snapshots_installed"
	// CounterStallsRecovered counts full append windows that timed out
	// without ack progress and fell back to probing (lost appends are then
	// retransmitted from Match+1).
	CounterStallsRecovered = "replica.append_stalls_recovered"
)

// DefaultMaxInflight is the append-message window used when
// Config.MaxInflight is unset: enough to pipeline catch-up across a few
// round trips without letting a slow peer absorb unbounded duplicates.
const DefaultMaxInflight = 4

// DefaultMaxInflightBytes is the per-peer byte budget used when
// Config.MaxInflightBytes is unset: one megabyte of encoded entries may be
// outstanding before the round downgrades to a heartbeat.
const DefaultMaxInflightBytes = 1 << 20

// Config parametrizes a Tracker.
type Config struct {
	// MaxInflight bounds outstanding append messages per peer in the
	// replicate state, and outstanding unacked chunks during snapshot
	// streaming (0 = DefaultMaxInflight). Since byte budgets landed this is
	// the secondary cap; MaxInflightBytes is the primary window.
	MaxInflight int
	// MaxInflightBytes bounds the encoded entry bytes outstanding per peer
	// in the replicate state (0 = DefaultMaxInflightBytes). Entries are
	// sized at encode time (types.EntryWireSize); a message may exceed the
	// remaining budget by at most one entry so a single oversized entry
	// can always make progress.
	MaxInflightBytes int
	// MaxEntries caps the entries carried by one AppendEntries message
	// (0 = unlimited); a lagging follower then catches up over several
	// bounded round trips instead of one unbounded message.
	MaxEntries int
	// MaxChunk is the snapshot chunk payload size in bytes (0 = ship the
	// whole snapshot in one message, as before chunking existed).
	MaxChunk int
	// ResendTimeout is how long a transfer may go without acknowledged
	// progress before it is retried, while no round-trip samples exist for
	// the peer: a pending snapshot's unacked part is re-sent, and a full
	// append window falls back to probing (RecoverStall). Once acks have
	// been observed the per-peer adaptive estimate (srtt + 4*rttvar,
	// clamped to [MinResendTimeout, MaxResendTimeout]) takes over. 0
	// disables timed retransmission entirely.
	ResendTimeout time.Duration
	// MinResendTimeout clamps the adaptive resend timeout from below
	// (cores pass the heartbeat interval; 0 = no lower clamp).
	MinResendTimeout time.Duration
	// MaxResendTimeout clamps the adaptive resend timeout from above
	// (cores pass the election timeout; 0 = no upper clamp).
	MaxResendTimeout time.Duration
}

// inflightMsg records one outstanding append: the last log index it
// carried, its encoded entry bytes, and when it was sent (round-trip
// sampling).
type inflightMsg struct {
	last   types.Index
	bytes  int
	sentAt time.Duration
}

// Progress tracks replication to one peer. Fields are managed by the
// Tracker; cores read them through accessors.
type Progress struct {
	match types.Index
	next  types.Index
	// fastMatch is the peer's fast-quorum vote position (Fast Raft's
	// fastMatchIndex; unused by classic Raft).
	fastMatch types.Index

	state       State
	maxInflight int
	maxBytes    int
	// inflight holds the outstanding appends, FIFO; acks free every
	// element whose last index <= the acknowledged match index.
	inflight      []inflightMsg
	bytesInFlight int
	// stallDeadline arms when sends fill the window: if no ack progress
	// arrives by then, the window is presumed lost (messages or acks
	// dropped) and the peer falls back to probing so the entries are
	// retransmitted. 0 = not armed.
	stallDeadline time.Duration

	// srtt/rttvar estimate the peer's acknowledgment round trip
	// (Jacobson/Karels EWMA), fed by append acks and snapshot-chunk acks.
	// 0 = no samples yet.
	srtt   time.Duration
	rttvar time.Duration

	// Snapshot streaming state (StateSnapshot only).
	pendingSnapshot types.Index   // boundary of the snapshot in flight
	acked           uint64        // contiguous bytes acknowledged by the peer
	cursor          uint64        // next byte offset to transmit
	maxSent         uint64        // transmission high-water mark (resend accounting)
	chunkSentAt     time.Duration // when the last chunk batch went out (RTT sampling)
	deadline        time.Duration // resend timeout for unacked progress
}

// Match returns the highest index known replicated on the peer.
func (p *Progress) Match() types.Index { return p.match }

// Next returns the next index to send to the peer.
func (p *Progress) Next() types.Index { return p.next }

// FastMatch returns the peer's fast-track vote position.
func (p *Progress) FastMatch() types.Index { return p.fastMatch }

// State returns the peer's replication state.
func (p *Progress) State() State { return p.state }

// BytesInFlight returns the encoded entry bytes currently outstanding to
// the peer (tests and diagnostics).
func (p *Progress) BytesInFlight() int { return p.bytesInFlight }

// RTT returns the smoothed acknowledgment round-trip estimate for the peer
// (0 until the first sample).
func (p *Progress) RTT() time.Duration { return p.srtt }

// RTTVar returns the round-trip variance estimate for the peer (0 until
// the first sample).
func (p *Progress) RTTVar() time.Duration { return p.rttvar }

// InflightMsgs returns the number of outstanding append messages to the
// peer.
func (p *Progress) InflightMsgs() int { return len(p.inflight) }

// PendingSnapshot returns the boundary of the snapshot being streamed to
// the peer (0 when none).
func (p *Progress) PendingSnapshot() types.Index {
	if p.state != StateSnapshot {
		return 0
	}
	return p.pendingSnapshot
}

// SnapshotCursor returns the transfer's acknowledged and transmitted byte
// positions (tests and diagnostics; zero outside StateSnapshot).
func (p *Progress) SnapshotCursor() (acked, cursor uint64) {
	if p.state != StateSnapshot {
		return 0, 0
	}
	return p.acked, p.cursor
}

// CanAppend reports whether the leader may ship log entries to this peer
// this round. False while a snapshot is pending, or while the replicate
// window — message count or byte budget — is full (the caller downgrades
// to a heartbeat).
func (p *Progress) CanAppend() bool {
	if p.state == StateSnapshot {
		return false
	}
	return len(p.inflight) < p.maxInflight && p.bytesInFlight < p.maxBytes
}

// SentAppend records that entries (prev+1 .. prev+n], sized at bytes on
// the wire, were sent at now. In the replicate state Next advances
// optimistically and the message joins the inflight window; in probe it
// stays put until acknowledged.
func (p *Progress) SentAppend(prev types.Index, n, bytes int, now time.Duration) {
	if n == 0 || p.state != StateReplicate {
		return
	}
	last := prev + types.Index(n)
	p.inflight = append(p.inflight, inflightMsg{last: last, bytes: bytes, sentAt: now})
	p.bytesInFlight += bytes
	if p.next <= last {
		p.next = last + 1
	}
}

// AckAppend folds a successful AppendEntries acknowledgment up to match,
// observed at now. It reports whether the peer's Match advanced. A first
// ack flips a probing peer to replicate; acks during a snapshot transfer
// only complete it when they prove the peer already holds the boundary.
// Freed inflight messages feed the round-trip estimator.
func (p *Progress) AckAppend(match types.Index, now time.Duration) bool {
	if p.state == StateSnapshot {
		if match < p.pendingSnapshot {
			return false // stale ack from before the transfer
		}
		p.finishSnapshot()
	}
	advanced := match > p.match
	if advanced {
		p.match = match
	}
	if p.next <= match {
		p.next = match + 1
	}
	i := 0
	for i < len(p.inflight) && p.inflight[i].last <= match {
		p.bytesInFlight -= p.inflight[i].bytes
		i++
	}
	if i > 0 {
		// The newest freed message is the one this reply answers; older
		// ones were acked by lost replies and would overestimate.
		p.observeRTT(now - p.inflight[i-1].sentAt)
		p.inflight = p.inflight[i:]
	}
	if advanced || i > 0 {
		// Ack progress: the window is moving, disarm the stall timer.
		p.stallDeadline = 0
	}
	if p.state == StateProbe {
		p.state = StateReplicate
	}
	return advanced
}

// observeRTT folds one acknowledgment round-trip sample into the EWMA
// estimate (Jacobson/Karels).
func (p *Progress) observeRTT(s time.Duration) {
	if s <= 0 {
		return
	}
	if p.srtt == 0 {
		p.srtt = s
		p.rttvar = s / 2
		return
	}
	d := p.srtt - s
	if d < 0 {
		d = -d
	}
	p.rttvar = (3*p.rttvar + d) / 4
	p.srtt = (7*p.srtt + s) / 8
}

// RejectAppend processes a failed consistency check: back Next off (using
// the follower's last-index hint to converge quickly) and drop back to
// probing. Ignored during a snapshot transfer — the rejected append
// predates it.
func (p *Progress) RejectAppend(hintLast types.Index) {
	if p.state == StateSnapshot {
		return
	}
	next := p.next
	if next > hintLast+1 {
		next = hintLast + 1
	} else if next > 1 {
		next--
	}
	if next == 0 {
		next = 1
	}
	p.next = next
	p.state = StateProbe
	p.clearInflight()
}

// ResetNext re-anchors Next (Fast Raft's vote rule: a voter reports its
// commit index and the leader re-converges its log from there). Ignored
// while a snapshot is streaming — re-anchoring below the boundary would
// restart the transfer every vote, which is exactly the redundancy this
// package exists to remove.
func (p *Progress) ResetNext(next types.Index) {
	if p.state == StateSnapshot {
		return
	}
	if next == 0 {
		next = 1
	}
	p.next = next
	p.state = StateProbe
	p.clearInflight()
}

// RecordFastMatch raises the peer's fast-track vote position.
func (p *Progress) RecordFastMatch(idx types.Index) {
	if idx > p.fastMatch {
		p.fastMatch = idx
	}
}

func (p *Progress) clearInflight() {
	p.inflight = nil
	p.bytesInFlight = 0
	p.stallDeadline = 0
}

func (p *Progress) finishSnapshot() {
	p.state = StateProbe
	p.pendingSnapshot = 0
	p.acked, p.cursor, p.maxSent = 0, 0, 0
	p.deadline = 0
	p.chunkSentAt = 0
	p.clearInflight()
}

// String renders the progress for diagnostics.
func (p *Progress) String() string {
	s := fmt.Sprintf("%s match=%d next=%d", p.state, p.match, p.next)
	if p.state == StateSnapshot {
		s += fmt.Sprintf(" pending=%d acked=%d cursor=%d", p.pendingSnapshot, p.acked, p.cursor)
	}
	return s
}

// LogView is the read-only slice of a core's log the dispatch layer needs.
// Classic Raft passes its full log; Fast Raft passes the leader-approved
// prefix (LastLeaderIndex/LeaderRange) — the accessor pair is the only
// difference between the two cores' replication, which is why one
// implementation serves both.
type LogView struct {
	// LastIndex returns the top of the replicable log.
	LastIndex func() types.Index
	// Term returns the term of the entry at an index (0 if absent).
	Term func(types.Index) types.Term
	// Entries appends the replicable entries in [lo, hi] to dst.
	Entries func(dst []types.Entry, lo, hi types.Index) []types.Entry
	// SnapshotIndex returns the compaction boundary (0 if never compacted).
	SnapshotIndex func() types.Index
}

// Round is the per-broadcast-round context stamped onto every message the
// tracker builds.
type Round struct {
	// Term is the leader's current term.
	Term types.Term
	// Leader is the leader's identity.
	Leader types.NodeID
	// Commit is the leader's commit index.
	Commit types.Index
	// Seq numbers the heartbeat round (silent-leave accounting).
	Seq uint64
	// NextHint seeds Next for peers first tracked this round (Fast Raft
	// probes from commitIndex+1).
	NextHint types.Index
	// ReadCtx is the read-batch ID stamped onto every AppendEntries message
	// of the round (0 = none); followers echo it and a quorum of echoes
	// confirms the batch (see internal/readpath).
	ReadCtx uint64
	// Now is the current virtual time.
	Now time.Duration
}

// Chunk describes one InstallSnapshot transmission the leader should make.
// The tracker plans offsets; the core slices the encoded snapshot and
// wraps the result in its own message envelope.
type Chunk struct {
	// Boundary is the snapshot's last covered index (stream identity).
	Boundary types.Index
	// Offset is the byte offset of this chunk within the encoded snapshot.
	Offset uint64
	// Len is the chunk payload length in bytes (0 for a Full send).
	Len uint64
	// Done marks the final chunk of the stream.
	Done bool
	// Full means "ship the entire snapshot in one legacy message" (chunking
	// disabled).
	Full bool
}

// Tracker owns the per-peer Progress map for one leadership. It is created
// when a node becomes leader and discarded on step-down; the counter set
// outlives it (the node passes its own).
type Tracker struct {
	cfg      Config
	peers    map[types.NodeID]*Progress
	counters *stats.Counters
}

// NewTracker builds a tracker. counters may be shared with the owning node
// (nil allocates a private set).
func NewTracker(cfg Config, counters *stats.Counters) *Tracker {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.MaxInflightBytes <= 0 {
		cfg.MaxInflightBytes = DefaultMaxInflightBytes
	}
	if counters == nil {
		counters = stats.NewCounters()
	}
	return &Tracker{
		cfg:      cfg,
		peers:    make(map[types.NodeID]*Progress),
		counters: counters,
	}
}

// Counters returns the tracker's counter set.
func (t *Tracker) Counters() *stats.Counters { return t.counters }

// Reset installs fresh progress for the given members, all probing from
// next. Called at election win.
func (t *Tracker) Reset(members []types.NodeID, next types.Index) {
	t.peers = make(map[types.NodeID]*Progress, len(members))
	for _, id := range members {
		t.Ensure(id, next)
	}
}

// Ensure returns the peer's progress, creating it (probing from next) if
// absent. Used for peers that appear mid-leadership: joiners being caught
// up and members added by configuration entries.
func (t *Tracker) Ensure(id types.NodeID, next types.Index) *Progress {
	if p, ok := t.peers[id]; ok {
		return p
	}
	if next == 0 {
		next = 1
	}
	p := &Progress{
		state:       StateProbe,
		next:        next,
		maxInflight: t.cfg.MaxInflight,
		maxBytes:    t.cfg.MaxInflightBytes,
	}
	t.peers[id] = p
	return p
}

// Get returns the peer's progress (nil if untracked).
func (t *Tracker) Get(id types.NodeID) *Progress { return t.peers[id] }

// Remove forgets a peer (left the configuration).
func (t *Tracker) Remove(id types.NodeID) { delete(t.peers, id) }

// Peers returns the tracked peer IDs in deterministic order.
func (t *Tracker) Peers() []types.NodeID {
	out := make([]types.NodeID, 0, len(t.peers))
	for id := range t.peers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Match returns the peer's match index (0 if untracked).
func (t *Tracker) Match(id types.NodeID) types.Index {
	if p, ok := t.peers[id]; ok {
		return p.match
	}
	return 0
}

// RecordSelf marks the leader's own replication position: its log end is
// both matched and fast-matched by definition.
func (t *Tracker) RecordSelf(self types.NodeID, match types.Index) {
	p := t.Ensure(self, match+1)
	if match > p.match {
		p.match = match
	}
	if p.next <= match {
		p.next = match + 1
	}
	p.RecordFastMatch(match)
	p.state = StateReplicate
}

// resendAfter is the peer's current retransmission timeout: the adaptive
// estimate (srtt + 4*rttvar, clamped to the configured window) once
// round-trip samples exist, the static ResendTimeout before that.
func (t *Tracker) resendAfter(p *Progress) time.Duration {
	if p == nil || p.srtt == 0 {
		return t.cfg.ResendTimeout
	}
	rto := p.srtt + 4*p.rttvar
	if min := t.cfg.MinResendTimeout; min > 0 && rto < min {
		rto = min
	}
	if max := t.cfg.MaxResendTimeout; max > 0 && rto > max {
		rto = max
	}
	return rto
}

// ResendAfter exposes the peer's effective retransmission timeout (tests
// and diagnostics; the static default if the peer is untracked).
func (t *Tracker) ResendAfter(id types.NodeID) time.Duration {
	return t.resendAfter(t.peers[id])
}

// RecoverStall is the escape hatch for a lost append window: called on a
// round where the peer's full window blocks an append, it arms (then
// checks) the peer's resend timeout; once the window has gone that long
// with no ack progress, the peer falls back to probing from Match+1 so the
// lost entries are retransmitted. Returns true when the fallback fired —
// the caller may append again this round.
func (t *Tracker) RecoverStall(id types.NodeID, now time.Duration) bool {
	p := t.peers[id]
	if p == nil || p.state != StateReplicate || len(p.inflight) == 0 {
		return false
	}
	if p.stallDeadline == 0 {
		p.stallDeadline = now + t.resendAfter(p)
		return false
	}
	if t.cfg.ResendTimeout <= 0 || now < p.stallDeadline {
		return false
	}
	p.next = p.match + 1
	p.state = StateProbe
	p.clearInflight()
	t.counters.Inc(CounterStallsRecovered)
	return true
}

// PeerStatus is a point-in-time snapshot of one peer's replication
// progress, exposed through the public API for introspection: the tracker
// knows srtt/rttvar and progress states, and this is how operators reach
// them.
type PeerStatus struct {
	// ID is the peer's identity.
	ID types.NodeID
	// State is the replication state ("probe", "replicate", "snapshot").
	State string
	// Match is the highest index known replicated on the peer.
	Match types.Index
	// Next is the next index to send.
	Next types.Index
	// SRTT is the smoothed acknowledgment round-trip estimate (0 = no
	// samples yet).
	SRTT time.Duration
	// RTTVar is the round-trip variance estimate.
	RTTVar time.Duration
	// InflightBytes is the encoded entry bytes currently outstanding.
	InflightBytes int
	// InflightMsgs is the append messages currently outstanding.
	InflightMsgs int
}

// Status snapshots every tracked peer's progress in deterministic order.
func (t *Tracker) Status() []PeerStatus {
	ids := t.Peers()
	out := make([]PeerStatus, 0, len(ids))
	for _, id := range ids {
		p := t.peers[id]
		out = append(out, PeerStatus{
			ID:            id,
			State:         p.state.String(),
			Match:         p.match,
			Next:          p.next,
			SRTT:          p.srtt,
			RTTVar:        p.rttvar,
			InflightBytes: p.bytesInFlight,
			InflightMsgs:  len(p.inflight),
		})
	}
	return out
}

// MatchQuorum reports whether >= q members of cfg have match >= idx (the
// classic commit rule).
func (t *Tracker) MatchQuorum(cfg types.Config, idx types.Index, q int) bool {
	return quorum.MatchQuorumFunc(cfg, t.Match, idx, q)
}

// FastMatchQuorum reports whether >= q members of cfg fast-voted for >= idx
// (Fast Raft's fast commit rule).
func (t *Tracker) FastMatchQuorum(cfg types.Config, idx types.Index, q int) bool {
	return quorum.MatchQuorumFunc(cfg, func(id types.NodeID) types.Index {
		if p, ok := t.peers[id]; ok {
			return p.fastMatch
		}
		return 0
	}, idx, q)
}

// --- Append dispatch (leader side) ------------------------------------------

// AppendMessage plans and builds this round's AppendEntries message to one
// peer. It returns the message to send now, or snapshot=true when the
// entries the peer needs are compacted away — the caller then streams its
// snapshot (SnapshotMessages) and heartbeats while the install is pending.
//
// Flow control is applied here: a full inflight window (bytes or messages)
// downgrades the round to a heartbeat unless the stall timeout fires, and
// the entry payload is trimmed to the remaining byte budget and MaxEntries.
// This is the single append-dispatch implementation for every core; the
// LogView accessors are the only per-protocol variation.
func (t *Tracker) AppendMessage(id types.NodeID, lv LogView, rc Round) (msg types.AppendEntries, snapshot bool) {
	pr := t.Ensure(id, rc.NextHint)
	if pr.state == StateSnapshot || pr.next <= lv.SnapshotIndex() {
		return types.AppendEntries{}, true
	}
	if !pr.CanAppend() {
		// Inflight window full: the peer has unacknowledged appends in
		// flight; pushing more would just duplicate them. If the window has
		// gone a full timeout without ack progress, the appends (or their
		// acks) were lost — fall back to probing and retransmit now.
		if !t.RecoverStall(id, rc.Now) {
			t.counters.Inc(CounterAppendsThrottled)
			return t.HeartbeatMessage(id, lv, rc), false
		}
	}
	next := pr.next
	prev := next - 1
	hi := lv.LastIndex()
	if max := t.cfg.MaxEntries; max > 0 && hi >= next+types.Index(max) {
		// Bound the payload; acks advance Next and the window lets the
		// following chunks pipeline.
		hi = next + types.Index(max) - 1
	}
	entries, size := t.budgetEntries(pr, lv, next, hi)
	msg = types.AppendEntries{
		Term:         rc.Term,
		LeaderID:     rc.Leader,
		PrevLogIndex: prev,
		PrevLogTerm:  lv.Term(prev),
		Entries:      entries,
		LeaderCommit: rc.Commit,
		Round:        rc.Seq,
		ReadCtx:      rc.ReadCtx,
	}
	pr.SentAppend(prev, len(entries), size, rc.Now)
	return msg, false
}

// budgetEntries materializes the batch [lo, hi] up to the peer's
// remaining byte budget, sizing each entry at its wire encoding, and
// returns the kept entries and their total size. Entries are fetched from
// the log in bounded slabs so a deeply lagging follower never causes the
// whole remaining tail to be copied just to keep one window's worth —
// without this, catch-up would copy O(lag) entries per refill, O(lag²)
// overall. The first entry is always kept so a single entry larger than
// the whole budget still makes progress (over-committing the window by at
// most one entry).
func (t *Tracker) budgetEntries(p *Progress, lv LogView, lo, hi types.Index) ([]types.Entry, int) {
	// fetchSlab bounds how far a fetch may overshoot the budget: at most
	// one slab of entries is copied beyond what ships.
	const fetchSlab = 256
	if lo > hi {
		return nil, 0 // a heartbeat: no batch slice to take from the pool
	}
	remaining := t.cfg.MaxInflightBytes - p.bytesInFlight
	hint := int(hi - lo + 1)
	if hint > fetchSlab {
		hint = fetchSlab
	}
	// The batch slice is pool-recycled: serializing transports return it
	// via types.RecycleEnvelope once the message is on the wire.
	out := types.GetEntries(hint)
	size := 0
	for lo <= hi {
		slabHi := lo + fetchSlab - 1
		if slabHi > hi {
			slabHi = hi
		}
		kept := len(out)
		out = lv.Entries(out, lo, slabHi)
		for ; kept < len(out); kept++ {
			n := types.EntryWireSize(out[kept])
			if kept > 0 && size+n > remaining {
				t.counters.Inc(CounterBytesThrottled)
				return out[:kept], size
			}
			size += n
		}
		lo = slabHi + 1
	}
	return out, size
}

// HeartbeatMessage builds an entry-free AppendEntries anchored where the
// peer is known to match (or at the snapshot boundary), so it passes the
// consistency check without carrying payload or regressing progress.
func (t *Tracker) HeartbeatMessage(id types.NodeID, lv LogView, rc Round) types.AppendEntries {
	prev := lv.SnapshotIndex()
	if p := t.peers[id]; p != nil && p.match > prev && p.match <= lv.LastIndex() {
		prev = p.match
	}
	return types.AppendEntries{
		Term:         rc.Term,
		LeaderID:     rc.Leader,
		PrevLogIndex: prev,
		PrevLogTerm:  lv.Term(prev),
		LeaderCommit: rc.Commit,
		Round:        rc.Seq,
		ReadCtx:      rc.ReadCtx,
	}
}

// --- Snapshot streaming (leader side) ---------------------------------------

// PlanSnapshot decides what, if anything, of the snapshot (boundary,
// encLen encoded bytes) to transmit to peer this round. It returns chunk
// descriptors to send now — empty when the pending-install flag suppresses
// transmission (the caller should still heartbeat). Transitions the peer
// into StateSnapshot, restarting the stream if the leader's snapshot
// boundary moved.
func (t *Tracker) PlanSnapshot(id types.NodeID, boundary types.Index, encLen int, now time.Duration) []Chunk {
	p := t.Ensure(id, boundary+1)
	if p.state != StateSnapshot || p.pendingSnapshot != boundary {
		p.state = StateSnapshot
		p.pendingSnapshot = boundary
		p.acked, p.cursor, p.maxSent = 0, 0, 0
		p.deadline = 0
		p.clearInflight()
		t.counters.Inc(CounterStreams)
	}

	if t.cfg.MaxChunk <= 0 {
		// Unchunked: one full transmission, then hold until acknowledged or
		// timed out. cursor doubles as the "sent once" flag.
		if p.cursor == 0 {
			p.cursor = uint64(encLen)
			p.chunkSentAt = now
			p.deadline = now + t.resendAfter(p)
			t.counters.Inc(CounterFullSent)
			return []Chunk{{Boundary: boundary, Done: true, Full: true}}
		}
		if t.cfg.ResendTimeout > 0 && now >= p.deadline {
			p.chunkSentAt = now
			p.deadline = now + t.resendAfter(p)
			t.counters.Inc(CounterFullResent)
			return []Chunk{{Boundary: boundary, Done: true, Full: true}}
		}
		t.counters.Inc(CounterPendingRounds)
		return nil
	}

	// A seeded continuation can land at or beyond this leader's whole
	// encoding (the follower buffered a divergent, longer encoding of the
	// same boundary). Had the follower really held our full image it would
	// have completed the install already — so nothing above total can ever
	// be acknowledged against this stream, and planning from there would
	// send nothing forever. Restart from byte 0; the checksum makes the
	// follower discard its stale buffer on the first chunk.
	if total := uint64(encLen); p.acked >= total && total > 0 {
		p.acked, p.cursor, p.maxSent = 0, 0, 0
		p.deadline = 0
	}

	// Chunked: if nothing was acknowledged since the last transmission for
	// a full timeout, rewind to the ack point and re-send from there; acked
	// chunks are never re-sent.
	if t.cfg.ResendTimeout > 0 && p.cursor > p.acked && now >= p.deadline {
		p.cursor = p.acked
	}
	chunks := t.planChunks(p, boundary, encLen, now)
	if len(chunks) == 0 {
		t.counters.Inc(CounterPendingRounds)
	}
	return chunks
}

// SeedSnapshot continues a predecessor leader's chunked transfer: the
// follower reported (through AppendEntriesResp.PendingBoundary/Offset)
// that it already buffered offset bytes of the snapshot at boundary, and
// this leader's snapshot matches that boundary — so the transfer starts
// from the follower's position instead of byte 0, never re-sending the
// chunks the old leader got acknowledged. No-op when chunking is off, when
// the peer is already streaming this boundary (the offset just folds in as
// an ack), or when offset is 0 (nothing to continue).
func (t *Tracker) SeedSnapshot(id types.NodeID, boundary types.Index, offset uint64, now time.Duration) {
	if t.cfg.MaxChunk <= 0 || boundary == 0 || offset == 0 {
		return
	}
	p := t.Ensure(id, boundary+1)
	if p.state == StateSnapshot && p.pendingSnapshot == boundary {
		if offset > p.acked {
			p.acked = offset
			if p.cursor < offset {
				p.cursor = offset
			}
		}
		return
	}
	p.state = StateSnapshot
	p.pendingSnapshot = boundary
	p.acked, p.cursor, p.maxSent = offset, offset, offset
	p.deadline = now
	p.chunkSentAt = 0
	p.clearInflight()
	t.counters.Inc(CounterStreams)
	t.counters.Inc(CounterStreamsResumed)
}

// AckSnapshot folds an InstallSnapshotReply into the peer's transfer
// state: lastIndex is the responder's resulting boundary/commit, offset the
// contiguous bytes it has buffered for the snapshot identified by boundary.
// It reports whether the transfer completed (install acknowledged, or the
// peer proved it already holds the prefix). On progress within an ongoing
// stream, the caller may immediately PlanSnapshot again to keep the chunk
// pipeline moving between rounds.
func (t *Tracker) AckSnapshot(id types.NodeID, boundary types.Index, offset uint64, lastIndex types.Index, now time.Duration) bool {
	p := t.peers[id]
	if p == nil {
		return false
	}
	if lastIndex > p.match {
		p.match = lastIndex
	}
	if p.next <= lastIndex {
		p.next = lastIndex + 1
	}
	if p.state != StateSnapshot {
		return false
	}
	if lastIndex >= p.pendingSnapshot {
		p.finishSnapshot()
		t.counters.Inc(CounterStreamsDone)
		return true
	}
	if boundary == p.pendingSnapshot {
		switch {
		case offset > p.acked:
			p.acked = offset
			if p.cursor < p.acked {
				p.cursor = p.acked
			}
			if p.chunkSentAt > 0 {
				p.observeRTT(now - p.chunkSentAt)
			}
			p.deadline = now + t.resendAfter(p)
		case offset < p.acked:
			// The responder's buffer regressed below our ack point — it
			// restarted mid-stream, discarded a corrupt stream, or rejected
			// a continuation whose bytes diverged from its buffered prefix
			// (checksum mismatch). Resume from its actual position instead
			// of wedging on a monotonic cursor. (A reordered stale ack costs
			// at most a re-sent window; the follower ignores overlaps.)
			p.acked = offset
			p.cursor = offset
		}
	}
	return false
}

// SnapshotMessages plans this round's transmission to peer and
// materializes the InstallSnapshot messages to send: the whole image in
// one message when chunking is off, chunk slices of enc (the encoded
// snapshot, whose IEEE CRC-32 is check) otherwise. Empty when the
// pending-install flag suppresses transmission. Shared by every core so
// the chunk protocol cannot diverge between them.
func (t *Tracker) SnapshotMessages(id types.NodeID, snap types.Snapshot, enc []byte, check uint32, term types.Term, leader types.NodeID, round uint64, now time.Duration) []types.InstallSnapshot {
	boundary := snap.Meta.LastIndex
	chunks := t.PlanSnapshot(id, boundary, len(enc), now)
	msgs := make([]types.InstallSnapshot, 0, len(chunks))
	for _, ch := range chunks {
		m := types.InstallSnapshot{
			Term:     term,
			LeaderID: leader,
			Boundary: boundary,
			Round:    round,
		}
		if ch.Full {
			m.Snapshot = snap
			m.Done = true
		} else {
			m.Offset = ch.Offset
			m.Data = append([]byte(nil), enc[ch.Offset:ch.Offset+ch.Len]...)
			m.Check = check
			m.Done = ch.Done
		}
		msgs = append(msgs, m)
	}
	return msgs
}

// AnySnapshotStreams reports whether any peer transfer is in flight; when
// none is, the owning core can release its snapshot-encoding cache.
func (t *Tracker) AnySnapshotStreams() bool {
	for _, p := range t.peers {
		if p.state == StateSnapshot {
			return true
		}
	}
	return false
}

// SnapshotEncoder caches the wire encoding of a node's current snapshot
// (keyed by its boundary) so chunked transfers do not re-encode per peer
// per round, along with the encoding's IEEE CRC-32 (the chunk stream's
// content identity). Release it when no transfer is in flight — the cache
// pins a state-machine-sized byte slice otherwise.
type SnapshotEncoder struct {
	enc      []byte
	boundary types.Index
	check    uint32
}

// Encode returns the cached encoding and its checksum, refreshing both
// when the snapshot boundary moved.
func (e *SnapshotEncoder) Encode(snap types.Snapshot) ([]byte, uint32) {
	if e.enc == nil || e.boundary != snap.Meta.LastIndex {
		e.enc = types.EncodeSnapshot(snap)
		e.boundary = snap.Meta.LastIndex
		e.check = crc32.ChecksumIEEE(e.enc)
	}
	return e.enc, e.check
}

// Release drops the cached encoding.
func (e *SnapshotEncoder) Release() {
	e.enc = nil
	e.boundary = 0
	e.check = 0
}

// planChunks emits chunks from the cursor up to the inflight window
// (MaxInflight unacked chunks), advancing the cursor.
func (t *Tracker) planChunks(p *Progress, boundary types.Index, encLen int, now time.Duration) []Chunk {
	total := uint64(encLen)
	window := uint64(t.cfg.MaxInflight) * uint64(t.cfg.MaxChunk)
	var out []Chunk
	for p.cursor < total && p.cursor-p.acked < window {
		n := uint64(t.cfg.MaxChunk)
		if p.cursor+n > total {
			n = total - p.cursor
		}
		out = append(out, Chunk{
			Boundary: boundary,
			Offset:   p.cursor,
			Len:      n,
			Done:     p.cursor+n == total,
		})
		if p.cursor < p.maxSent {
			t.counters.Inc(CounterChunksResent)
		} else {
			t.counters.Inc(CounterChunksSent)
		}
		p.cursor += n
		if p.cursor > p.maxSent {
			p.maxSent = p.cursor
		}
	}
	if len(out) > 0 {
		p.chunkSentAt = now
		p.deadline = now + t.resendAfter(p)
	}
	return out
}

// --- Snapshot reassembly (follower side) ------------------------------------

// Reassembler rebuilds a chunked snapshot stream on the receiving side.
// One instance per node suffices. Streams are identified by (boundary,
// checksum) — the content, not the sender — so a successor leader whose
// snapshot encodes to the same bytes continues filling the same buffer
// where its predecessor stopped, and a sender whose encoding diverges
// (different checksum) restarts the buffer cleanly instead of corrupting
// it.
type Reassembler struct {
	boundary types.Index
	check    uint32
	buf      []byte
	total    uint64 // offset+len of the Done chunk (0 = not seen yet)
}

// Offer ingests one chunked InstallSnapshot message. It returns the
// reassembled snapshot when the stream completed (complete=true), and the
// acknowledgment offset — the contiguous byte count buffered — the caller
// should echo in its reply. Out-of-order chunks beyond the contiguous
// prefix are dropped (the ack offset tells the leader where to resume);
// duplicates are ignored. A snapshot that fails to decode resets the
// stream so the leader's resend can start clean.
func (r *Reassembler) Offer(boundary types.Index, check uint32, offset uint64, data []byte, done bool) (snap types.Snapshot, complete bool, ack uint64) {
	if boundary != r.boundary || check != r.check {
		// A different stream (new boundary, or a sender whose encoding of
		// the same boundary diverged): restart the buffer.
		r.boundary, r.check = boundary, check
		r.buf = r.buf[:0]
		r.total = 0
	}
	switch {
	case offset == uint64(len(r.buf)):
		r.buf = append(r.buf, data...)
	case offset < uint64(len(r.buf)):
		// Duplicate or overlap: already buffered; ack current position.
	default:
		// Gap (loss/reorder ahead of the prefix): drop; the leader resends
		// from our ack offset after its timeout.
	}
	if done {
		r.total = offset + uint64(len(data))
	}
	if r.total != 0 && uint64(len(r.buf)) >= r.total {
		total := r.total
		s, err := types.DecodeSnapshot(r.buf[:total])
		r.Reset()
		if err != nil {
			// Corrupt stream (hostile or mis-framed): restart rather than
			// panic; the leader re-sends from zero.
			return types.Snapshot{}, false, 0
		}
		return s, true, total
	}
	return types.Snapshot{}, false, uint64(len(r.buf))
}

// Pending reports the stream currently being reassembled: its boundary and
// the contiguous bytes buffered (0, 0 when none). Followers piggyback this
// on AppendEntries responses so a new leader can continue the stream.
func (r *Reassembler) Pending() (types.Index, uint64) {
	if r.boundary == 0 || len(r.buf) == 0 {
		return 0, 0
	}
	return r.boundary, uint64(len(r.buf))
}

// Reset drops any partial stream (e.g. after an install completed through
// another path), releasing the buffer — it can be snapshot-sized, and the
// node owning this reassembler lives long past the transfer.
func (r *Reassembler) Reset() {
	r.boundary, r.check = 0, 0
	r.buf = nil
	r.total = 0
}
