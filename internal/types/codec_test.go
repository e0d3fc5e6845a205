package types

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// sampleEntries returns a representative entry corpus.
func sampleEntries() []Entry {
	cfg := NewConfig("a", "b", "c")
	return []Entry{
		{},
		{Index: 1, Term: 1, Kind: KindNormal, Approval: ApprovedSelf,
			PID: ProposalID{Proposer: "n1", Seq: 1}, Data: []byte("hello")},
		{Index: 42, Term: 7, Kind: KindNoop, Approval: ApprovedLeader},
		{Index: 3, Term: 2, Kind: KindConfig, Approval: ApprovedLeader, Config: &cfg},
		{Index: 9, Term: 3, Kind: KindBatch, Approval: ApprovedSelf,
			PID: ProposalID{Proposer: "cluster-1", Seq: 12}, Data: bytes.Repeat([]byte{0xAB}, 300)},
		{Index: 1 << 40, Term: 1 << 30, Kind: KindGlobalState, Approval: ApprovedLeader,
			Data: []byte{}},
		{Index: 5, Term: 2, Kind: KindNormal, Approval: ApprovedSelf,
			PID:     ProposalID{Proposer: "n2", Seq: 9},
			Session: 3, SessionSeq: 7, Data: []byte("session-tagged")},
		{Index: 8, Term: 2, Kind: KindNormal, Approval: ApprovedLeader,
			PID:     ProposalID{Proposer: "n3", Seq: 11},
			Session: 3, SessionSeq: 9, SessionAck: 6, Data: []byte("acked")},
		{Index: 6, Term: 2, Kind: KindSessionOpen, Approval: ApprovedLeader,
			PID: ProposalID{Proposer: "n2", Seq: 10}},
		{Index: 7, Term: 2, Kind: KindSessionExpire, Approval: ApprovedLeader,
			Data: []byte{0x80, 0x08, 0x10}},
		{Index: 12, Term: 4, Kind: KindNormal, Approval: ApprovedSelf,
			PID:     ProposalID{Proposer: "n1", Seq: 13},
			TraceID: 0xDEADBEEFCAFE, Data: []byte("traced")},
	}
}

func sampleMessages() []Message {
	es := sampleEntries()
	return []Message{
		ProposeEntry{Index: 5, Entry: es[1]},
		VoteEntry{Term: 3, Index: 5, Entry: es[1], CommitIndex: 4},
		ClientPropose{Entry: es[1]},
		AppendEntries{Term: 9, LeaderID: "lead", PrevLogIndex: 8, PrevLogTerm: 7,
			Entries: es[1:4], LeaderCommit: 6, Round: 11, ReadCtx: 42},
		AppendEntries{Term: 1, LeaderID: "l"},
		AppendEntriesResp{Term: 9, Success: true, MatchIndex: 12, LastLogIndex: 14,
			Round: 11, ReadCtx: 42},
		AppendEntriesResp{Term: 9, Success: false, LastLogIndex: 2,
			PendingBoundary: 40, PendingOffset: 1024, Round: 12},
		AppendEntriesResp{Term: 2},
		RequestVote{Term: 4, CandidateID: "cand", LastLogIndex: 10, LastLogTerm: 3},
		RequestVoteResp{Term: 4, Granted: true, SelfApproved: es[1:2]},
		RequestVoteResp{Term: 4},
		CommitNotify{PID: ProposalID{Proposer: "p", Seq: 77}, Index: 5},
		CommitNotify{PID: ProposalID{Proposer: "p", Seq: 78}, Index: 6, Term: 4},
		JoinRequest{Site: "newbie"},
		JoinRedirect{Leader: "lead"},
		JoinAccepted{ConfigIndex: 30},
		LeaveRequest{Site: "goner"},
		InstallSnapshot{Term: 12, LeaderID: "lead", Round: 4, Snapshot: Snapshot{
			Meta: SnapshotMeta{LastIndex: 100, LastTerm: 9,
				Config: NewConfig("a", "b", "c"), ConfigIndex: 37},
			Data: bytes.Repeat([]byte{0x5C}, 200),
		}},
		InstallSnapshot{Term: 1, LeaderID: "l"},
		InstallSnapshot{Term: 13, LeaderID: "lead", Round: 6,
			Boundary: 100, Offset: 4096, Data: bytes.Repeat([]byte{0x7E}, 512),
			Check: 0xDEADBEEF},
		InstallSnapshot{Term: 13, LeaderID: "lead", Round: 7,
			Boundary: 100, Offset: 8192, Data: []byte{0x01}, Done: true},
		InstallSnapshotReply{Term: 12, LastIndex: 100, Round: 4},
		InstallSnapshotReply{Term: 13, LastIndex: 3, Boundary: 100, Offset: 4608, Round: 6},
		ReadRequest{Reads: []ReadSpec{{ID: 7, Consistency: ReadLinearizable}}},
		ReadRequest{Reads: []ReadSpec{
			{ID: 8, Consistency: ReadLeaseBased},
			{ID: 9, Consistency: ReadLinearizable},
		}},
		ReadReply{Results: []ReadResult{{ID: 7, Index: 99, OK: true}}},
		ReadReply{Results: []ReadResult{
			{ID: 8},
			{ID: 9, Index: 100, OK: true},
		}},
		RequestVote{Term: 8, CandidateID: "heir", LastLogIndex: 10, LastLogTerm: 3,
			Transfer: true},
		AppendEntries{Term: 10, LeaderID: "lead", PrevLogIndex: 11, PrevLogTerm: 9,
			Entries: es[10:], LeaderCommit: 11, Round: 13},
		ReadRequest{Reads: []ReadSpec{
			{ID: 10, Consistency: ReadLinearizable, Trace: 0xAB54A98CEB1F0A},
			{ID: 11, Consistency: ReadLeaseBased},
		}},
		ReadReply{Results: []ReadResult{
			{ID: 10, Index: 101, OK: true, Trace: 0xAB54A98CEB1F0A},
			{ID: 11, Index: 102, OK: true},
		}},
		InstallSnapshot{Term: 14, LeaderID: "lead", Round: 8,
			Boundary: 120, Offset: 4096, Data: []byte{0x2A}, Done: true,
			Trace: 0xFEEDFACE},
		TimeoutNow{Term: 8},
		ShardBatch{},
		ShardBatch{Frames: []ShardFrame{
			{Group: "g-a", Layer: LayerLocal, Msg: AppendEntries{Term: 9, LeaderID: "lead",
				PrevLogIndex: 8, PrevLogTerm: 7, Entries: es[1:3], LeaderCommit: 6, Round: 2}},
			{Group: "g-b", Layer: LayerLocal, Msg: VoteEntry{Term: 3, Index: 5,
				Entry: es[1], CommitIndex: 4}},
			{Group: "", Layer: LayerGlobal, Msg: TimeoutNow{Term: 4}},
		}},
	}
}

func TestEnvelopeRoundTripAllMessages(t *testing.T) {
	for _, msg := range sampleMessages() {
		env := Envelope{From: "a", To: "b", Layer: LayerGlobal, Group: "g7", Msg: msg}
		buf, err := EncodeEnvelope(env)
		if err != nil {
			t.Fatalf("%s: encode: %v", msg.MsgName(), err)
		}
		got, err := DecodeEnvelope(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", msg.MsgName(), err)
		}
		if !reflect.DeepEqual(normalize(env), normalize(got)) {
			t.Fatalf("%s: roundtrip mismatch:\n in: %#v\nout: %#v", msg.MsgName(), env, got)
		}
	}
}

// normalize maps empty and nil slices to a canonical form for comparison.
func normalize(env Envelope) Envelope {
	env.Msg = CloneMessage(env.Msg)
	switch m := env.Msg.(type) {
	case AppendEntries:
		m.Entries = canonEntries(m.Entries)
		env.Msg = m
	case RequestVoteResp:
		m.SelfApproved = canonEntries(m.SelfApproved)
		env.Msg = m
	case ProposeEntry:
		m.Entry = canonEntry(m.Entry)
		env.Msg = m
	case VoteEntry:
		m.Entry = canonEntry(m.Entry)
		env.Msg = m
	case ClientPropose:
		m.Entry = canonEntry(m.Entry)
		env.Msg = m
	case InstallSnapshot:
		m.Snapshot = canonSnapshot(m.Snapshot)
		env.Msg = m
	case ShardBatch:
		if len(m.Frames) == 0 {
			m.Frames = nil
		}
		for i, f := range m.Frames {
			inner := normalize(Envelope{Msg: f.Msg})
			m.Frames[i].Msg = inner.Msg
		}
		env.Msg = m
	}
	return env
}

func canonSnapshot(s Snapshot) Snapshot {
	if len(s.Data) == 0 {
		s.Data = nil
	}
	if len(s.Sessions) == 0 {
		s.Sessions = nil
	}
	if len(s.Meta.Config.Members) == 0 {
		s.Meta.Config = Config{}
	}
	return s
}

func canonEntries(es []Entry) []Entry {
	if len(es) == 0 {
		return nil
	}
	out := make([]Entry, len(es))
	for i := range es {
		out[i] = canonEntry(es[i])
	}
	return out
}

func canonEntry(e Entry) Entry {
	if len(e.Data) == 0 {
		e.Data = nil
	}
	if e.Config != nil && len(e.Config.Members) == 0 {
		e.Config = &Config{}
	}
	return e
}

func TestEntryRoundTrip(t *testing.T) {
	for _, e := range sampleEntries() {
		buf := EncodeEntry(e)
		got, err := DecodeEntry(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", e, err)
		}
		if !reflect.DeepEqual(canonEntry(e.Clone()), canonEntry(got)) {
			t.Fatalf("roundtrip mismatch:\n in: %#v\nout: %#v", e, got)
		}
	}
}

// TestDecodeSnapshotWithoutSessionsSection checks that snapshots written
// before the session subsystem (no trailing Sessions field) still load,
// with an empty registry.
func TestDecodeSnapshotWithoutSessionsSection(t *testing.T) {
	s := Snapshot{
		Meta: SnapshotMeta{LastIndex: 5, LastTerm: 2,
			Config: NewConfig("a", "b"), ConfigIndex: 1},
		Data: []byte("state"),
	}
	buf := EncodeSnapshot(s)
	// The empty Sessions field encodes as a single trailing zero-length
	// varint; dropping it reproduces the pre-session format.
	got, err := DecodeSnapshot(buf[:len(buf)-1])
	if err != nil {
		t.Fatalf("old-format snapshot failed to decode: %v", err)
	}
	if got.Sessions != nil {
		t.Fatalf("old-format snapshot decoded with sessions: %x", got.Sessions)
	}
	if !reflect.DeepEqual(canonSnapshot(s.Clone()), canonSnapshot(got)) {
		t.Fatalf("roundtrip mismatch:\n in: %#v\nout: %#v", s, got)
	}
}

// encodeV2Envelope reproduces the wire-version-2 frame layout (no chunk
// fields on InstallSnapshot / InstallSnapshotReply) so mixed-version
// clusters can be tested against the v3 decoder.
func encodeV2Envelope(t *testing.T, env Envelope) []byte {
	t.Helper()
	var w writer
	w.buf = append(w.buf, 0xC4, 0xAF, 2)
	tag, err := msgTag(env.Msg)
	if err != nil {
		t.Fatal(err)
	}
	w.buf = append(w.buf, tag)
	w.str(string(env.From))
	w.str(string(env.To))
	w.buf = append(w.buf, byte(env.Layer))
	switch v := env.Msg.(type) {
	case InstallSnapshot:
		w.u64(uint64(v.Term))
		w.str(string(v.LeaderID))
		w.snapshot(v.Snapshot)
		w.u64(v.Round)
	case InstallSnapshotReply:
		w.u64(uint64(v.Term))
		w.u64(uint64(v.LastIndex))
		w.u64(v.Round)
	default:
		t.Fatalf("encodeV2Envelope: unsupported %T", env.Msg)
	}
	return w.buf
}

// TestDecodeV2InstallSnapshotUnderV3 checks that a frame from a v2 sender
// (whole-image transfer, no chunk fields) decodes under the v3 codec as a
// completed legacy transfer rather than misdecoding trailing fields.
func TestDecodeV2InstallSnapshotUnderV3(t *testing.T) {
	snap := Snapshot{
		Meta: SnapshotMeta{LastIndex: 88, LastTerm: 5,
			Config: NewConfig("a", "b", "c"), ConfigIndex: 37},
		Data:     []byte("whole image"),
		Sessions: []byte{1, 2, 3},
	}
	env := Envelope{From: "lead", To: "n2", Layer: LayerLocal,
		Msg: InstallSnapshot{Term: 9, LeaderID: "lead", Snapshot: snap, Round: 3}}
	got, err := DecodeEnvelope(encodeV2Envelope(t, env))
	if err != nil {
		t.Fatalf("v2 frame rejected by v3 decoder: %v", err)
	}
	m, ok := got.Msg.(InstallSnapshot)
	if !ok {
		t.Fatalf("decoded %T", got.Msg)
	}
	if !m.Done || m.Boundary != 88 || m.Offset != 0 || m.Data != nil {
		t.Fatalf("v2 frame not normalized to a whole-image transfer: %+v", m)
	}
	if m.Round != 3 || m.Term != 9 {
		t.Fatalf("v2 trailing fields misdecoded: %+v", m)
	}
	if !reflect.DeepEqual(canonSnapshot(snap.Clone()), canonSnapshot(m.Snapshot)) {
		t.Fatalf("snapshot mismatch:\n in: %#v\nout: %#v", snap, m.Snapshot)
	}
}

// TestDecodeV2InstallSnapshotReplyUnderV3 is the reply-direction compat
// case: v2 replies carry no ack fields; they must decode with zero
// Boundary/Offset and an intact Round.
func TestDecodeV2InstallSnapshotReplyUnderV3(t *testing.T) {
	env := Envelope{From: "n2", To: "lead", Layer: LayerLocal,
		Msg: InstallSnapshotReply{Term: 9, LastIndex: 88, Round: 3}}
	got, err := DecodeEnvelope(encodeV2Envelope(t, env))
	if err != nil {
		t.Fatalf("v2 reply rejected: %v", err)
	}
	m, ok := got.Msg.(InstallSnapshotReply)
	if !ok {
		t.Fatalf("decoded %T", got.Msg)
	}
	if m.Term != 9 || m.LastIndex != 88 || m.Round != 3 || m.Boundary != 0 || m.Offset != 0 {
		t.Fatalf("v2 reply misdecoded: %+v", m)
	}
}

// encodeV3Envelope hand-encodes a frame in the v3 layout (chunk fields,
// but no session-ack, pending-stream or checksum fields) so the v4
// decoder's backward compatibility can be pinned without keeping an old
// encoder around.
func encodeV3Envelope(t *testing.T, env Envelope) []byte {
	t.Helper()
	var w writer
	w.buf = append(w.buf, 0xC4, 0xAF, 3)
	tag, err := msgTag(env.Msg)
	if err != nil {
		t.Fatal(err)
	}
	w.buf = append(w.buf, tag)
	w.str(string(env.From))
	w.str(string(env.To))
	w.buf = append(w.buf, byte(env.Layer))
	v3entry := func(e Entry) {
		w.u64(uint64(e.Index))
		w.u64(uint64(e.Term))
		w.buf = append(w.buf, byte(e.Kind), byte(e.Approval))
		w.str(string(e.PID.Proposer))
		w.u64(e.PID.Seq)
		w.u64(uint64(e.Session))
		w.u64(e.SessionSeq)
		w.bytes(e.Data)
		w.bool(false) // no config
	}
	switch v := env.Msg.(type) {
	case AppendEntries:
		w.u64(uint64(v.Term))
		w.str(string(v.LeaderID))
		w.u64(uint64(v.PrevLogIndex))
		w.u64(uint64(v.PrevLogTerm))
		w.u64(uint64(len(v.Entries)))
		for i := range v.Entries {
			v3entry(v.Entries[i])
		}
		w.u64(uint64(v.LeaderCommit))
		w.u64(v.Round)
	case AppendEntriesResp:
		w.u64(uint64(v.Term))
		w.bool(v.Success)
		w.u64(uint64(v.MatchIndex))
		w.u64(uint64(v.LastLogIndex))
		w.u64(v.Round)
	case InstallSnapshot:
		w.u64(uint64(v.Term))
		w.str(string(v.LeaderID))
		w.snapshot(v.Snapshot)
		w.u64(uint64(v.Boundary))
		w.u64(v.Offset)
		w.bytes(v.Data)
		w.bool(v.Done)
		w.u64(v.Round)
	default:
		t.Fatalf("encodeV3Envelope: unsupported %T", env.Msg)
	}
	return w.buf
}

// TestDecodeV3FramesUnderV4 pins decode compatibility with v3 senders:
// entries without the session-ack field, responses without the
// pending-stream fields and chunks without the checksum must decode with
// those features zero and every trailing field intact.
func TestDecodeV3FramesUnderV4(t *testing.T) {
	ae := AppendEntries{Term: 9, LeaderID: "lead", PrevLogIndex: 8, PrevLogTerm: 7,
		Entries: []Entry{{Index: 9, Term: 9, Kind: KindNormal, Approval: ApprovedLeader,
			PID: ProposalID{Proposer: "p", Seq: 2}, Session: 3, SessionSeq: 7,
			Data: []byte("v3")}},
		LeaderCommit: 6, Round: 11}
	got, err := DecodeEnvelope(encodeV3Envelope(t, Envelope{From: "l", To: "f", Layer: LayerLocal, Msg: ae}))
	if err != nil {
		t.Fatalf("v3 AppendEntries rejected: %v", err)
	}
	if m := got.Msg.(AppendEntries); m.Round != 11 || m.LeaderCommit != 6 ||
		len(m.Entries) != 1 || m.Entries[0].SessionAck != 0 ||
		string(m.Entries[0].Data) != "v3" {
		t.Fatalf("v3 AppendEntries misdecoded: %+v", got.Msg)
	}

	resp := AppendEntriesResp{Term: 9, Success: true, MatchIndex: 12, LastLogIndex: 14, Round: 11}
	got, err = DecodeEnvelope(encodeV3Envelope(t, Envelope{From: "f", To: "l", Layer: LayerLocal, Msg: resp}))
	if err != nil {
		t.Fatalf("v3 AppendEntriesResp rejected: %v", err)
	}
	if m := got.Msg.(AppendEntriesResp); m.Round != 11 || m.MatchIndex != 12 ||
		m.PendingBoundary != 0 || m.PendingOffset != 0 {
		t.Fatalf("v3 AppendEntriesResp misdecoded: %+v", got.Msg)
	}

	is := InstallSnapshot{Term: 13, LeaderID: "lead", Boundary: 100, Offset: 4096,
		Data: []byte{0x7E, 0x7F}, Done: true, Round: 6}
	got, err = DecodeEnvelope(encodeV3Envelope(t, Envelope{From: "l", To: "f", Layer: LayerLocal, Msg: is}))
	if err != nil {
		t.Fatalf("v3 InstallSnapshot rejected: %v", err)
	}
	if m := got.Msg.(InstallSnapshot); m.Round != 6 || m.Offset != 4096 ||
		m.Check != 0 || !m.Done || len(m.Data) != 2 {
		t.Fatalf("v3 InstallSnapshot misdecoded: %+v", got.Msg)
	}
}

// encodeV6Envelope hand-encodes a frame in the v6 layout (no group tag in
// the envelope header, no transfer flag on RequestVote) so the v7 decoder's
// backward compatibility can be pinned without keeping an old encoder
// around.
func encodeV6Envelope(t *testing.T, env Envelope) []byte {
	t.Helper()
	var w writer
	w.buf = append(w.buf, 0xC4, 0xAF, 6)
	tag, err := msgTag(env.Msg)
	if err != nil {
		t.Fatal(err)
	}
	w.buf = append(w.buf, tag)
	w.str(string(env.From))
	w.str(string(env.To))
	w.buf = append(w.buf, byte(env.Layer))
	switch v := env.Msg.(type) {
	case RequestVote:
		w.u64(uint64(v.Term))
		w.str(string(v.CandidateID))
		w.u64(uint64(v.LastLogIndex))
		w.u64(uint64(v.LastLogTerm))
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
	default:
		t.Fatalf("encodeV6Envelope: unsupported %T", env.Msg)
	}
	return w.buf
}

// TestDecodeV6FramesUnderV7 pins decode compatibility with v6 senders:
// ungrouped frames decode with Group empty (the flat single-group
// namespace) and votes without the transfer flag decode as ordinary
// elections.
func TestDecodeV6FramesUnderV7(t *testing.T) {
	rv := RequestVote{Term: 4, CandidateID: "cand", LastLogIndex: 10, LastLogTerm: 3}
	got, err := DecodeEnvelope(encodeV6Envelope(t, Envelope{From: "c", To: "v", Layer: LayerLocal, Msg: rv}))
	if err != nil {
		t.Fatalf("v6 RequestVote rejected: %v", err)
	}
	if got.Group != "" {
		t.Fatalf("v6 frame decoded with group %q", got.Group)
	}
	if m := got.Msg.(RequestVote); m.Transfer || m.Term != 4 || m.CandidateID != "cand" {
		t.Fatalf("v6 RequestVote misdecoded: %+v", got.Msg)
	}

	ae := AppendEntries{Term: 9, LeaderID: "lead", PrevLogIndex: 8, PrevLogTerm: 7,
		Entries: []Entry{{Index: 9, Term: 9, Kind: KindNormal, Approval: ApprovedLeader,
			PID: ProposalID{Proposer: "p", Seq: 2}, Data: []byte("v6")}},
		LeaderCommit: 6, Round: 11, ReadCtx: 42}
	got, err = DecodeEnvelope(encodeV6Envelope(t, Envelope{From: "l", To: "f", Layer: LayerLocal, Msg: ae}))
	if err != nil {
		t.Fatalf("v6 AppendEntries rejected: %v", err)
	}
	if m := got.Msg.(AppendEntries); got.Group != "" || m.ReadCtx != 42 ||
		len(m.Entries) != 1 || string(m.Entries[0].Data) != "v6" {
		t.Fatalf("v6 AppendEntries misdecoded: %+v", got.Msg)
	}
}

// TestDecodeShardBatchRejectsNesting pins the no-recursion contract: a
// frame claiming to contain a ShardBatch inside a ShardBatch is rejected.
func TestDecodeShardBatchRejectsNesting(t *testing.T) {
	if _, err := EncodeEnvelope(Envelope{From: "a", To: "b", Layer: LayerLocal,
		Msg: ShardBatch{Frames: []ShardFrame{{Group: "g", Layer: LayerLocal,
			Msg: ShardBatch{}}}}}); err == nil {
		t.Fatal("nested ShardBatch encoded without error")
	}
	// Hand-build the hostile frame the encoder refuses to produce.
	var w writer
	w.buf = append(w.buf, 0xC4, 0xAF, 7, tagShardBatch)
	w.str("a")
	w.str("b")
	w.buf = append(w.buf, byte(LayerLocal))
	w.str("") // group
	w.u64(1)  // one frame
	w.str("g")
	w.buf = append(w.buf, byte(LayerLocal), tagShardBatch)
	w.u64(0)
	if _, err := DecodeEnvelope(w.buf); err == nil {
		t.Fatal("nested ShardBatch decoded without error")
	}
}

// TestEntryWireSizeMatchesEncoding pins the size function the byte-budget
// flow control uses to the actual encoder output.
// encodeV4Envelope hand-encodes an AppendEntries/AppendEntriesResp frame
// in the v4 layout (session-ack and pending-stream fields, but no
// read-batch ID) so the v5 decoder's backward compatibility can be pinned
// without keeping an old encoder around.
func encodeV4Envelope(t *testing.T, env Envelope) []byte {
	t.Helper()
	var w writer
	w.buf = append(w.buf, 0xC4, 0xAF, 4)
	tag, err := msgTag(env.Msg)
	if err != nil {
		t.Fatal(err)
	}
	w.buf = append(w.buf, tag)
	w.str(string(env.From))
	w.str(string(env.To))
	w.buf = append(w.buf, byte(env.Layer))
	switch v := env.Msg.(type) {
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
	case AppendEntriesResp:
		w.u64(uint64(v.Term))
		w.bool(v.Success)
		w.u64(uint64(v.MatchIndex))
		w.u64(uint64(v.LastLogIndex))
		w.u64(uint64(v.PendingBoundary))
		w.u64(v.PendingOffset)
		w.u64(v.Round)
	default:
		t.Fatalf("encodeV4Envelope: unsupported %T", env.Msg)
	}
	return w.buf
}

// TestDecodeV4FramesUnderV5 pins decode compatibility with v4 senders:
// heartbeats and acks without the read-batch ID decode with ReadCtx zero
// (such responders simply never confirm read batches).
func TestDecodeV4FramesUnderV5(t *testing.T) {
	ae := AppendEntries{Term: 9, LeaderID: "lead", PrevLogIndex: 8, PrevLogTerm: 7,
		Entries: []Entry{{Index: 9, Term: 9, Kind: KindNormal, Approval: ApprovedLeader,
			PID: ProposalID{Proposer: "p", Seq: 2}, SessionAck: 3, Data: []byte("v4")}},
		LeaderCommit: 6, Round: 11}
	got, err := DecodeEnvelope(encodeV4Envelope(t, Envelope{From: "l", To: "f", Layer: LayerLocal, Msg: ae}))
	if err != nil {
		t.Fatalf("v4 AppendEntries rejected: %v", err)
	}
	if m := got.Msg.(AppendEntries); m.Round != 11 || m.ReadCtx != 0 ||
		len(m.Entries) != 1 || m.Entries[0].SessionAck != 3 {
		t.Fatalf("v4 AppendEntries misdecoded: %+v", got.Msg)
	}

	resp := AppendEntriesResp{Term: 9, Success: true, MatchIndex: 12, LastLogIndex: 14,
		PendingBoundary: 40, PendingOffset: 1024, Round: 11}
	got, err = DecodeEnvelope(encodeV4Envelope(t, Envelope{From: "f", To: "l", Layer: LayerLocal, Msg: resp}))
	if err != nil {
		t.Fatalf("v4 AppendEntriesResp rejected: %v", err)
	}
	if m := got.Msg.(AppendEntriesResp); m.Round != 11 || m.ReadCtx != 0 ||
		m.PendingBoundary != 40 || m.PendingOffset != 1024 {
		t.Fatalf("v4 AppendEntriesResp misdecoded: %+v", got.Msg)
	}
}

func TestEntryWireSizeMatchesEncoding(t *testing.T) {
	for i, e := range sampleEntries() {
		if got, want := EntryWireSize(e), len(EncodeEntry(e)); got != want {
			t.Fatalf("entry %d: EntryWireSize = %d, len(EncodeEntry) = %d", i, got, want)
		}
	}
}

// TestDecodeEnvelopeRejectsUnknownVersions pins the loud-failure contract:
// versions below the compatibility floor or above the current version are
// ErrBadFrame, never a silent misdecode.
func TestDecodeEnvelopeRejectsUnknownVersions(t *testing.T) {
	env := Envelope{From: "a", To: "b", Layer: LayerLocal,
		Msg: CommitNotify{PID: ProposalID{Proposer: "p", Seq: 1}, Index: 2}}
	buf, err := EncodeEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, ver := range []byte{0, 1, 10, 11, 255} {
		bad := append([]byte(nil), buf...)
		bad[2] = ver
		if _, err := DecodeEnvelope(bad); err == nil {
			t.Fatalf("version %d decoded without error", ver)
		}
	}
}

func TestDecodeEnvelopeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{1, 2, 3},
		{0xC4, 0xAF, 1},              // truncated after header
		{0xC4, 0xAF, 9, 1, 0, 0, 0},  // wrong version
		{0xC4, 0xAF, 1, 99, 0, 0, 0}, // unknown tag
		bytes.Repeat([]byte{0xFF}, 64),
	}
	for i, c := range cases {
		if _, err := DecodeEnvelope(c); err == nil {
			t.Fatalf("case %d: garbage decoded without error", i)
		}
	}
}

func TestDecodeEnvelopeTruncationNeverPanics(t *testing.T) {
	for _, msg := range sampleMessages() {
		env := Envelope{From: "from", To: "to", Layer: LayerLocal, Msg: msg}
		buf, err := EncodeEnvelope(env)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(buf); cut++ {
			// Any prefix must decode cleanly or error, never panic.
			_, _ = DecodeEnvelope(buf[:cut])
		}
	}
}

func TestDecodeEnvelopeBitFlipsNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, msg := range sampleMessages() {
		env := Envelope{From: "from", To: "to", Layer: LayerLocal, Msg: msg}
		buf, err := EncodeEnvelope(env)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			corrupt := append([]byte(nil), buf...)
			corrupt[rng.Intn(len(corrupt))] ^= byte(1 << rng.Intn(8))
			_, _ = DecodeEnvelope(corrupt)
		}
	}
}

// quickEntry generates a random entry for property tests.
func quickEntry(rng *rand.Rand) Entry {
	e := Entry{
		Index:    Index(rng.Uint64() >> 16),
		Term:     Term(rng.Uint64() >> 16),
		Kind:     EntryKind(rng.Intn(7) + 1),
		Approval: Approval(rng.Intn(2) + 1),
	}
	if rng.Intn(2) == 0 {
		e.PID = ProposalID{Proposer: NodeID(randName(rng)), Seq: rng.Uint64() >> 32}
	}
	if rng.Intn(3) == 0 {
		e.Session = SessionID(rng.Uint64() >> 32)
		e.SessionSeq = rng.Uint64() >> 32
	}
	if n := rng.Intn(64); n > 0 {
		e.Data = make([]byte, n)
		rng.Read(e.Data)
	}
	if rng.Intn(4) == 0 {
		cfg := NewConfig(NodeID(randName(rng)), NodeID(randName(rng)))
		e.Config = &cfg
	}
	return e
}

func randName(rng *rand.Rand) string {
	const letters = "abcdefghij"
	n := rng.Intn(8) + 1
	out := make([]byte, n)
	for i := range out {
		out[i] = letters[rng.Intn(len(letters))]
	}
	return string(out)
}

func TestQuickEntryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := quickEntry(rng)
		got, err := DecodeEntry(EncodeEntry(e))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(canonEntry(e.Clone()), canonEntry(got))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := Snapshot{Meta: SnapshotMeta{
			LastIndex:   Index(rng.Uint64() >> 16),
			LastTerm:    Term(rng.Uint64() >> 16),
			Config:      NewConfig(NodeID(randName(rng)), NodeID(randName(rng))),
			ConfigIndex: Index(rng.Uint64() >> 32),
		}}
		if n := rng.Intn(256); n > 0 {
			s.Data = make([]byte, n)
			rng.Read(s.Data)
		}
		if n := rng.Intn(64); n > 0 {
			s.Sessions = make([]byte, n)
			rng.Read(s.Sessions)
		}
		got, err := DecodeSnapshot(EncodeSnapshot(s))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(canonSnapshot(s.Clone()), canonSnapshot(got))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBatchRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := Batch{Cluster: NodeID(randName(rng)), Seq: rng.Uint64() >> 32}
		for i := 0; i < rng.Intn(20); i++ {
			item := BatchItem{PID: ProposalID{Proposer: NodeID(randName(rng)), Seq: uint64(i)}}
			if n := rng.Intn(32); n > 0 {
				item.Data = make([]byte, n)
				rng.Read(item.Data)
			}
			b.Items = append(b.Items, item)
		}
		got, err := DecodeBatch(EncodeBatch(b))
		if err != nil {
			return false
		}
		if got.Cluster != b.Cluster || got.Seq != b.Seq || len(got.Items) != len(b.Items) {
			return false
		}
		for i := range b.Items {
			if got.Items[i].PID != b.Items[i].PID || !bytes.Equal(got.Items[i].Data, b.Items[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGlobalStateDeltaRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := GlobalStateDelta{
			Era:         rng.Uint64() >> 32,
			Seq:         rng.Uint64() >> 32,
			Term:        Term(rng.Uint64() >> 32),
			VotedFor:    NodeID(randName(rng)),
			CommitIndex: Index(rng.Uint64() >> 32),
		}
		for i := 0; i < rng.Intn(6); i++ {
			d.Entries = append(d.Entries, quickEntry(rng))
		}
		got, err := DecodeGlobalStateDelta(EncodeGlobalStateDelta(d))
		if err != nil {
			return false
		}
		if got.Era != d.Era || got.Seq != d.Seq || got.Term != d.Term ||
			got.VotedFor != d.VotedFor || got.CommitIndex != d.CommitIndex ||
			len(got.Entries) != len(d.Entries) {
			return false
		}
		for i := range d.Entries {
			if !reflect.DeepEqual(canonEntry(d.Entries[i].Clone()), canonEntry(got.Entries[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
