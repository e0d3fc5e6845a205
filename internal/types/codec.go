package types

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire codec.
//
// Messages cross the UDP transport as a single datagram:
//
//	magic(2) version(1) msgType(1) | from | to | layer(1) | group | body
//
// All integers are unsigned varints; strings and byte slices are
// length-prefixed. Every message type has exactly one body layout
// (encodeBody). The codec is hand-rolled (stdlib-only constraint) and
// round-trip and fuzz tested.

const (
	wireMagic = 0xC4AF
	// wireVersion is the one frame version this codec reads and writes. A
	// frame carrying any other version byte is ErrBadFrame, never a guess at
	// another layout; a body layout change replaces the version.
	wireVersion = 9
)

// wireTraceFlag marks a trace-context varint following the byte it is set
// on: the entry Kind byte, a ReadSpec's Consistency byte, a ReadResult's
// OK byte, or an InstallSnapshot's Done byte. All four fields use fewer
// than 7 bits of their byte, so an unsampled encode carries no
// trace-context bytes at all. Encoders set it only when the TraceID is
// nonzero.
const wireTraceFlag = 0x80

// Message type tags. The values are part of the wire format; never reorder.
const (
	tagProposeEntry uint8 = iota + 1
	tagVoteEntry
	tagClientPropose
	tagAppendEntries
	tagAppendEntriesResp
	tagRequestVote
	tagRequestVoteResp
	tagCommitNotify
	tagJoinRequest
	tagJoinRedirect
	tagJoinAccepted
	tagLeaveRequest
	tagInstallSnapshot
	tagInstallSnapshotReply
	tagReadRequest
	tagReadReply
	tagTimeoutNow
	tagShardBatch
)

// ErrBadFrame reports a datagram that is not a valid hraft frame.
var ErrBadFrame = errors.New("types: bad frame")

// AppendEnvelope serializes an envelope onto buf (nil for a fresh buffer,
// or a recycled one) and returns the extended slice. With a reused buffer
// of sufficient capacity the encode performs zero heap allocations;
// transports on the send hot path keep one scratch buffer per sender
// goroutine and re-encode into it.
func AppendEnvelope(buf []byte, env Envelope) ([]byte, error) {
	tag, err := msgTag(env.Msg)
	if err != nil {
		return nil, err
	}
	w := writer{buf: buf}
	var hdr [3]byte
	binary.BigEndian.PutUint16(hdr[:2], wireMagic)
	hdr[2] = wireVersion
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, tag)
	w.str(string(env.From))
	w.str(string(env.To))
	w.buf = append(w.buf, byte(env.Layer))
	w.str(string(env.Group))
	encodeBody(&w, env.Msg)
	if w.err != nil {
		return nil, w.err
	}
	return w.buf, nil
}

// DecodeEnvelope parses a datagram produced by AppendEnvelope.
func DecodeEnvelope(data []byte) (Envelope, error) {
	if len(data) < 4 || binary.BigEndian.Uint16(data[:2]) != wireMagic || data[2] != wireVersion {
		return Envelope{}, ErrBadFrame
	}
	tag := data[3]
	r := reader{buf: data[4:]}
	var env Envelope
	env.From = NodeID(r.str())
	env.To = NodeID(r.str())
	if r.err == nil {
		if len(r.buf) <= r.off {
			r.err = ErrBadFrame
		} else {
			env.Layer = Layer(r.buf[r.off])
			r.off++
		}
	}
	env.Group = GroupID(r.str())
	msg, err := decodeBody(&r, tag)
	if err != nil {
		return Envelope{}, err
	}
	if r.err != nil {
		return Envelope{}, fmt.Errorf("types: decode envelope: %w", r.err)
	}
	env.Msg = msg
	return env, nil
}

func msgTag(m Message) (uint8, error) {
	switch m.(type) {
	case ProposeEntry:
		return tagProposeEntry, nil
	case VoteEntry:
		return tagVoteEntry, nil
	case ClientPropose:
		return tagClientPropose, nil
	case AppendEntries:
		return tagAppendEntries, nil
	case AppendEntriesResp:
		return tagAppendEntriesResp, nil
	case RequestVote:
		return tagRequestVote, nil
	case RequestVoteResp:
		return tagRequestVoteResp, nil
	case CommitNotify:
		return tagCommitNotify, nil
	case JoinRequest:
		return tagJoinRequest, nil
	case JoinRedirect:
		return tagJoinRedirect, nil
	case JoinAccepted:
		return tagJoinAccepted, nil
	case LeaveRequest:
		return tagLeaveRequest, nil
	case InstallSnapshot:
		return tagInstallSnapshot, nil
	case InstallSnapshotReply:
		return tagInstallSnapshotReply, nil
	case ReadRequest:
		return tagReadRequest, nil
	case ReadReply:
		return tagReadReply, nil
	case TimeoutNow:
		return tagTimeoutNow, nil
	case ShardBatch:
		return tagShardBatch, nil
	default:
		return 0, fmt.Errorf("types: unknown message type %T", m)
	}
}

func encodeBody(w *writer, m Message) {
	switch v := m.(type) {
	case ProposeEntry:
		w.u64(uint64(v.Index))
		w.entry(v.Entry)
	case VoteEntry:
		w.u64(uint64(v.Term))
		w.u64(uint64(v.Index))
		w.entry(v.Entry)
		w.u64(uint64(v.CommitIndex))
	case ClientPropose:
		w.entry(v.Entry)
	case AppendEntries:
		w.u64(uint64(v.Term))
		w.str(string(v.LeaderID))
		w.u64(uint64(v.PrevLogIndex))
		w.u64(uint64(v.PrevLogTerm))
		w.u64(uint64(len(v.Entries)))
		for i := range v.Entries {
			w.entry(v.Entries[i])
		}
		w.u64(uint64(v.LeaderCommit))
		w.u64(v.Round)
		w.u64(v.ReadCtx)
	case AppendEntriesResp:
		w.u64(uint64(v.Term))
		w.bool(v.Success)
		w.u64(uint64(v.MatchIndex))
		w.u64(uint64(v.LastLogIndex))
		w.u64(uint64(v.PendingBoundary))
		w.u64(v.PendingOffset)
		w.u64(v.Round)
		w.u64(v.ReadCtx)
	case RequestVote:
		w.u64(uint64(v.Term))
		w.str(string(v.CandidateID))
		w.u64(uint64(v.LastLogIndex))
		w.u64(uint64(v.LastLogTerm))
		w.bool(v.Transfer)
	case RequestVoteResp:
		w.u64(uint64(v.Term))
		w.bool(v.Granted)
		w.u64(uint64(len(v.SelfApproved)))
		for i := range v.SelfApproved {
			w.entry(v.SelfApproved[i])
		}
	case CommitNotify:
		w.str(string(v.PID.Proposer))
		w.u64(v.PID.Seq)
		w.u64(uint64(v.Index))
		w.u64(uint64(v.Term))
	case JoinRequest:
		w.str(string(v.Site))
	case JoinRedirect:
		w.str(string(v.Leader))
	case JoinAccepted:
		w.u64(uint64(v.ConfigIndex))
	case LeaveRequest:
		w.str(string(v.Site))
	case InstallSnapshot:
		w.u64(uint64(v.Term))
		w.str(string(v.LeaderID))
		w.snapshot(v.Snapshot)
		w.u64(uint64(v.Boundary))
		w.u64(v.Offset)
		w.bytes(v.Data)
		w.u64(uint64(v.Check))
		var done byte
		if v.Done {
			done = 1
		}
		if v.Trace != 0 {
			done |= wireTraceFlag
		}
		w.buf = append(w.buf, done)
		if v.Trace != 0 {
			w.u64(v.Trace)
		}
		w.u64(v.Round)
	case InstallSnapshotReply:
		w.u64(uint64(v.Term))
		w.u64(uint64(v.LastIndex))
		w.u64(uint64(v.Boundary))
		w.u64(v.Offset)
		w.u64(v.Round)
	case ReadRequest:
		w.u64(uint64(len(v.Reads)))
		for _, s := range v.Reads {
			w.u64(s.ID)
			c := byte(s.Consistency)
			if s.Trace != 0 {
				c |= wireTraceFlag
			}
			w.buf = append(w.buf, c)
			if s.Trace != 0 {
				w.u64(s.Trace)
			}
		}
	case ReadReply:
		w.u64(uint64(len(v.Results)))
		for _, res := range v.Results {
			w.u64(res.ID)
			w.u64(uint64(res.Index))
			var ok byte
			if res.OK {
				ok = 1
			}
			if res.Trace != 0 {
				ok |= wireTraceFlag
			}
			w.buf = append(w.buf, ok)
			if res.Trace != 0 {
				w.u64(res.Trace)
			}
		}
	case TimeoutNow:
		w.u64(uint64(v.Term))
	case ShardBatch:
		w.u64(uint64(len(v.Frames)))
		for _, f := range v.Frames {
			if _, nested := f.Msg.(ShardBatch); nested {
				w.err = fmt.Errorf("types: nested ShardBatch: %w", ErrBadFrame)
				return
			}
			tag, err := msgTag(f.Msg)
			if err != nil {
				w.err = err
				return
			}
			w.str(string(f.Group))
			w.buf = append(w.buf, byte(f.Layer), tag)
			encodeBody(w, f.Msg)
		}
	}
}

func decodeBody(r *reader, tag uint8) (Message, error) {
	switch tag {
	case tagProposeEntry:
		var v ProposeEntry
		v.Index = Index(r.u64())
		v.Entry = r.entry()
		return v, r.err
	case tagVoteEntry:
		var v VoteEntry
		v.Term = Term(r.u64())
		v.Index = Index(r.u64())
		v.Entry = r.entry()
		v.CommitIndex = Index(r.u64())
		return v, r.err
	case tagClientPropose:
		var v ClientPropose
		v.Entry = r.entry()
		return v, r.err
	case tagAppendEntries:
		var v AppendEntries
		v.Term = Term(r.u64())
		v.LeaderID = NodeID(r.str())
		v.PrevLogIndex = Index(r.u64())
		v.PrevLogTerm = Term(r.u64())
		n := r.u64()
		if r.err == nil && n > uint64(len(r.buf)) {
			return nil, ErrBadFrame
		}
		if n > 0 && r.err == nil {
			v.Entries = GetEntries(int(n))
		}
		for i := uint64(0); i < n && r.err == nil; i++ {
			v.Entries = append(v.Entries, r.entry())
		}
		v.LeaderCommit = Index(r.u64())
		v.Round = r.u64()
		v.ReadCtx = r.u64()
		return v, r.err
	case tagAppendEntriesResp:
		var v AppendEntriesResp
		v.Term = Term(r.u64())
		v.Success = r.bool()
		v.MatchIndex = Index(r.u64())
		v.LastLogIndex = Index(r.u64())
		v.PendingBoundary = Index(r.u64())
		v.PendingOffset = r.u64()
		v.Round = r.u64()
		v.ReadCtx = r.u64()
		return v, r.err
	case tagRequestVote:
		var v RequestVote
		v.Term = Term(r.u64())
		v.CandidateID = NodeID(r.str())
		v.LastLogIndex = Index(r.u64())
		v.LastLogTerm = Term(r.u64())
		v.Transfer = r.bool()
		return v, r.err
	case tagRequestVoteResp:
		var v RequestVoteResp
		v.Term = Term(r.u64())
		v.Granted = r.bool()
		n := r.u64()
		if r.err == nil && n > uint64(len(r.buf)) {
			return nil, ErrBadFrame
		}
		for i := uint64(0); i < n && r.err == nil; i++ {
			v.SelfApproved = append(v.SelfApproved, r.entry())
		}
		return v, r.err
	case tagCommitNotify:
		var v CommitNotify
		v.PID.Proposer = NodeID(r.str())
		v.PID.Seq = r.u64()
		v.Index = Index(r.u64())
		v.Term = Term(r.u64())
		return v, r.err
	case tagJoinRequest:
		var v JoinRequest
		v.Site = NodeID(r.str())
		return v, r.err
	case tagJoinRedirect:
		var v JoinRedirect
		v.Leader = NodeID(r.str())
		return v, r.err
	case tagJoinAccepted:
		var v JoinAccepted
		v.ConfigIndex = Index(r.u64())
		return v, r.err
	case tagLeaveRequest:
		var v LeaveRequest
		v.Site = NodeID(r.str())
		return v, r.err
	case tagInstallSnapshot:
		var v InstallSnapshot
		v.Term = Term(r.u64())
		v.LeaderID = NodeID(r.str())
		v.Snapshot = r.snapshot()
		v.Boundary = Index(r.u64())
		v.Offset = r.u64()
		v.Data = r.bytes()
		v.Check = uint32(r.u64())
		done, trace := r.flaggedByte()
		v.Done = done != 0
		v.Trace = trace
		v.Round = r.u64()
		return v, r.err
	case tagInstallSnapshotReply:
		var v InstallSnapshotReply
		v.Term = Term(r.u64())
		v.LastIndex = Index(r.u64())
		v.Boundary = Index(r.u64())
		v.Offset = r.u64()
		v.Round = r.u64()
		return v, r.err
	case tagReadRequest:
		var v ReadRequest
		n := r.u64()
		if r.err == nil && n > uint64(len(r.buf)) {
			return nil, ErrBadFrame
		}
		for i := uint64(0); i < n && r.err == nil; i++ {
			var s ReadSpec
			s.ID = r.u64()
			c, trace := r.flaggedByte()
			s.Consistency = ReadConsistency(c)
			s.Trace = trace
			if r.err == nil {
				v.Reads = append(v.Reads, s)
			}
		}
		return v, r.err
	case tagReadReply:
		var v ReadReply
		n := r.u64()
		if r.err == nil && n > uint64(len(r.buf)) {
			return nil, ErrBadFrame
		}
		for i := uint64(0); i < n && r.err == nil; i++ {
			var res ReadResult
			res.ID = r.u64()
			res.Index = Index(r.u64())
			ok, trace := r.flaggedByte()
			res.OK = ok != 0
			res.Trace = trace
			if r.err == nil {
				v.Results = append(v.Results, res)
			}
		}
		return v, r.err
	case tagTimeoutNow:
		var v TimeoutNow
		v.Term = Term(r.u64())
		return v, r.err
	case tagShardBatch:
		var v ShardBatch
		n := r.u64()
		if r.err == nil && n > uint64(len(r.buf)) {
			return nil, ErrBadFrame
		}
		if n > 0 && r.err == nil {
			v.Frames = make([]ShardFrame, 0, n)
		}
		for i := uint64(0); i < n && r.err == nil; i++ {
			var f ShardFrame
			f.Group = GroupID(r.str())
			if r.err == nil {
				if r.off+2 > len(r.buf) {
					r.err = ErrBadFrame
					break
				}
				f.Layer = Layer(r.buf[r.off])
				inner := r.buf[r.off+1]
				r.off += 2
				if inner == tagShardBatch {
					// Batches never nest; a nested tag is a corrupt or
					// hostile frame, not a recursion invitation.
					return nil, ErrBadFrame
				}
				msg, err := decodeBody(r, inner)
				if err != nil {
					return nil, err
				}
				f.Msg = msg
			}
			if r.err == nil {
				v.Frames = append(v.Frames, f)
			}
		}
		return v, r.err
	default:
		return nil, fmt.Errorf("types: unknown message tag %d: %w", tag, ErrBadFrame)
	}
}

// writer accumulates the encoded form. The zero value is ready to use. err
// latches the first nested-encode failure (an unknown message type inside a
// ShardBatch frame); the fixed-layout primitives themselves cannot fail.
type writer struct {
	buf []byte
	err error
}

func (w *writer) u64(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *writer) bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

func (w *writer) bytes(b []byte) {
	w.u64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *writer) str(s string) {
	w.u64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *writer) entry(e Entry) {
	w.u64(uint64(e.Index))
	w.u64(uint64(e.Term))
	kind := byte(e.Kind)
	if e.TraceID != 0 {
		kind |= wireTraceFlag
	}
	w.buf = append(w.buf, kind, byte(e.Approval))
	if e.TraceID != 0 {
		w.u64(e.TraceID)
	}
	w.str(string(e.PID.Proposer))
	w.u64(e.PID.Seq)
	w.u64(uint64(e.Session))
	w.u64(e.SessionSeq)
	w.u64(e.SessionAck)
	w.bytes(e.Data)
	if e.Config != nil {
		w.bool(true)
		w.u64(uint64(len(e.Config.Members)))
		for _, m := range e.Config.Members {
			w.str(string(m))
		}
	} else {
		w.bool(false)
	}
}

// reader consumes an encoded buffer, latching the first error.
//
// Byte fields come out read-only (see Entry). A reader over a buffer its
// caller may reuse (a datagram, a file read) copies the unread rest of the
// buffer into one arena at the first non-empty byte field and slices every
// byte field from it: one allocation per frame instead of one per field. A
// reader over an entry's own payload (owned) slices the buffer itself.
type reader struct {
	buf []byte
	off int
	err error

	owned bool
	arena []byte // copy of buf[base:]
	base  int
	// strs remembers the last few decoded strings: node IDs repeat within a
	// frame (sender, leader, every entry's proposer), and a repeat costs no
	// allocation.
	strs [4]string
	nstr int
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = ErrBadFrame
		return 0
	}
	r.off += n
	return v
}

func (r *reader) bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.err = ErrBadFrame
		return false
	}
	b := r.buf[r.off]
	r.off++
	return b != 0
}

// flaggedByte reads one raw byte that may carry wireTraceFlag plus the
// trace-context varint behind it. Returns the byte with the flag cleared
// and the trace ID (0 when absent).
func (r *reader) flaggedByte() (byte, uint64) {
	if r.err != nil {
		return 0, 0
	}
	if r.off >= len(r.buf) {
		r.err = ErrBadFrame
		return 0, 0
	}
	b := r.buf[r.off]
	r.off++
	if b&wireTraceFlag == 0 {
		return b, 0
	}
	return b &^ wireTraceFlag, r.u64()
}

// field consumes a length-prefixed field and returns it in place (nil when
// empty or malformed).
func (r *reader) field() []byte {
	n := r.u64()
	if r.err == nil && n > uint64(len(r.buf)-r.off) {
		r.err = ErrBadFrame
	}
	if r.err != nil || n == 0 {
		return nil
	}
	r.off += int(n)
	return r.buf[r.off-int(n) : r.off]
}

func (r *reader) bytes() []byte {
	b := r.field()
	if b == nil || r.owned {
		return b[:len(b):len(b)]
	}
	if r.arena == nil {
		r.base = r.off - len(b)
		r.arena = append([]byte(nil), r.buf[r.base:]...)
	}
	return r.arena[r.off-len(b)-r.base : r.off-r.base : r.off-r.base]
}

func (r *reader) str() string {
	b := r.field()
	if len(b) == 0 {
		return ""
	}
	for _, s := range r.strs {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	r.strs[r.nstr%len(r.strs)] = s
	r.nstr++
	return s
}

func (r *reader) entry() Entry {
	var e Entry
	e.Index = Index(r.u64())
	e.Term = Term(r.u64())
	if r.err == nil {
		if r.off+2 > len(r.buf) {
			r.err = ErrBadFrame
			return e
		}
		kind := r.buf[r.off]
		e.Approval = Approval(r.buf[r.off+1])
		r.off += 2
		if kind&wireTraceFlag != 0 {
			kind &^= wireTraceFlag
			e.TraceID = r.u64()
		}
		e.Kind = EntryKind(kind)
	}
	e.PID.Proposer = NodeID(r.str())
	e.PID.Seq = r.u64()
	e.Session = SessionID(r.u64())
	e.SessionSeq = r.u64()
	e.SessionAck = r.u64()
	e.Data = r.bytes()
	if r.bool() {
		n := r.u64()
		if r.err == nil && n > uint64(len(r.buf)) {
			r.err = ErrBadFrame
			return e
		}
		members := make([]NodeID, 0, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			members = append(members, NodeID(r.str()))
		}
		e.Config = &Config{Members: members}
	}
	return e
}

// AppendEntryTo serializes a single log entry onto buf (nil for a fresh
// buffer) and returns the extended slice. With a reused buffer of
// sufficient capacity the encode is allocation-free; the WAL record writer
// encodes every record through one scratch buffer this way.
func AppendEntryTo(buf []byte, e Entry) []byte {
	w := writer{buf: buf}
	w.entry(e)
	return w.buf
}

// uvarintLen returns the encoded size of v as an unsigned varint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// EntryWireSize returns len(AppendEntryTo(nil, e)) without allocating. The
// replication engine uses it to budget AppendEntries payloads in bytes;
// keep it in lockstep with writer.entry.
func EntryWireSize(e Entry) int {
	n := uvarintLen(uint64(e.Index)) + uvarintLen(uint64(e.Term)) + 2 // kind, approval
	if e.TraceID != 0 {
		n += uvarintLen(e.TraceID)
	}
	n += uvarintLen(uint64(len(e.PID.Proposer))) + len(e.PID.Proposer)
	n += uvarintLen(e.PID.Seq)
	n += uvarintLen(uint64(e.Session)) + uvarintLen(e.SessionSeq) + uvarintLen(e.SessionAck)
	n += uvarintLen(uint64(len(e.Data))) + len(e.Data)
	n++ // config flag
	if e.Config != nil {
		n += uvarintLen(uint64(len(e.Config.Members)))
		for _, m := range e.Config.Members {
			n += uvarintLen(uint64(len(m))) + len(m)
		}
	}
	return n
}

// DecodeEntry parses an entry produced by AppendEntryTo.
func DecodeEntry(data []byte) (Entry, error) {
	r := reader{buf: data}
	e := r.entry()
	if r.err != nil {
		return Entry{}, fmt.Errorf("types: decode entry: %w", r.err)
	}
	return e, nil
}
