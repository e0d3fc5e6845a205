package types

import (
	"bytes"
	"errors"
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
		buf, err := AppendEnvelope(nil, env)
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
		got, err := DecodeEntry(AppendEntryTo(nil, e))
		if err != nil {
			t.Fatalf("decode %v: %v", e, err)
		}
		if !reflect.DeepEqual(canonEntry(e.Clone()), canonEntry(got)) {
			t.Fatalf("roundtrip mismatch:\n in: %#v\nout: %#v", e, got)
		}
	}
}

// TestDecodeShardBatchRejectsNesting pins the no-recursion contract: a
// frame claiming to contain a ShardBatch inside a ShardBatch is rejected.
func TestDecodeShardBatchRejectsNesting(t *testing.T) {
	if _, err := AppendEnvelope(nil, Envelope{From: "a", To: "b", Layer: LayerLocal,
		Msg: ShardBatch{Frames: []ShardFrame{{Group: "g", Layer: LayerLocal,
			Msg: ShardBatch{}}}}}); err == nil {
		t.Fatal("nested ShardBatch encoded without error")
	}
	// Hand-build the hostile frame the encoder refuses to produce.
	var w writer
	w.buf = append(w.buf, 0xC4, 0xAF, wireVersion, tagShardBatch)
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
func TestEntryWireSizeMatchesEncoding(t *testing.T) {
	for i, e := range sampleEntries() {
		if got, want := EntryWireSize(e), len(AppendEntryTo(nil, e)); got != want {
			t.Fatalf("entry %d: EntryWireSize = %d, encoded length = %d", i, got, want)
		}
	}
}

// TestDecodeEnvelopeRejectsUnknownVersions pins the one-version contract: a
// valid body behind any version byte but the current one is ErrBadFrame,
// never a decode under some other layout.
func TestDecodeEnvelopeRejectsUnknownVersions(t *testing.T) {
	env := Envelope{From: "a", To: "b", Layer: LayerLocal,
		Msg: CommitNotify{PID: ProposalID{Proposer: "p", Seq: 1}, Index: 2, Term: 1}}
	buf, err := AppendEnvelope(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	if buf[2] != 9 {
		t.Fatalf("version byte = %d, want 9", buf[2])
	}
	if _, err := DecodeEnvelope(buf); err != nil {
		t.Fatalf("current frame rejected: %v", err)
	}
	for _, ver := range []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 255} {
		bad := append([]byte(nil), buf...)
		bad[2] = ver
		if _, err := DecodeEnvelope(bad); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("version %d: err = %v, want ErrBadFrame", ver, err)
		}
	}
}

func TestDecodeEnvelopeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{1, 2, 3},
		{0xC4, 0xAF, 1},                       // truncated after header
		{0xC4, 0xAF, wireVersion, 1, 0, 0, 0}, // truncated body
		{0xC4, 0xAF, wireVersion, 99, 0, 0, 0, 0}, // unknown tag after a complete header
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
		buf, err := AppendEnvelope(nil, env)
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
		buf, err := AppendEnvelope(nil, env)
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
		got, err := DecodeEntry(AppendEntryTo(nil, e))
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

// tracedCarriers returns one message per trace-context carrier (an entry, a
// read spec, a read result, a snapshot chunk), each with its trace ID set.
func tracedCarriers() []Message {
	const tid = 0xAB54A98CEB1F0A
	return []Message{
		AppendEntries{Term: 9, LeaderID: "lead", PrevLogIndex: 8, PrevLogTerm: 7,
			Entries: []Entry{{Index: 9, Term: 9, Kind: KindNormal, Approval: ApprovedSelf,
				PID: ProposalID{Proposer: "p", Seq: 2}, TraceID: tid, Data: []byte("x")}},
			LeaderCommit: 6, Round: 11},
		ReadRequest{Reads: []ReadSpec{{ID: 7, Consistency: ReadLeaseBased, Trace: tid}}},
		ReadReply{Results: []ReadResult{{ID: 7, Index: 99, OK: true, Trace: tid}}},
		InstallSnapshot{Term: 13, LeaderID: "lead", Boundary: 100,
			Offset: 4096, Data: []byte{0x7E}, Done: true, Round: 6, Trace: tid},
	}
}

// TestTracedCarriersRoundTrip checks that the trace ID on every carrier, and
// the field whose byte carries the trace flag, survive an encode/decode
// cycle end to end.
func TestTracedCarriersRoundTrip(t *testing.T) {
	for _, msg := range tracedCarriers() {
		env := Envelope{From: "f", To: "l", Layer: LayerLocal, Msg: msg}
		buf, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatalf("%s: encode: %v", msg.MsgName(), err)
		}
		got, err := DecodeEnvelope(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", msg.MsgName(), err)
		}
		if !reflect.DeepEqual(normalize(env), normalize(got)) {
			t.Fatalf("%s: trace context lost:\n in: %#v\nout: %#v", msg.MsgName(), env, got)
		}
	}
	e := tracedCarriers()[0].(AppendEntries).Entries[0]
	got, err := DecodeEntry(AppendEntryTo(nil, e))
	if err != nil || got.TraceID != e.TraceID || got.Kind != KindNormal {
		t.Fatalf("entry trace lost: %+v, %v", got, err)
	}
}

// TestBatchTraceSection pins the batch payload's trailing trace section:
// sampled items round-trip their context, and an unsampled batch carries no
// trace section at all (re-encoding its decode reproduces it bit for bit).
func TestBatchTraceSection(t *testing.T) {
	traced := Batch{Cluster: "cA", Seq: 3, Items: []BatchItem{
		{PID: ProposalID{Proposer: "a1", Seq: 1}, Data: []byte("one")},
		{PID: ProposalID{Proposer: "a2", Seq: 2}, Data: []byte("two"), Trace: 0xFEED},
		{PID: ProposalID{Proposer: "a3", Seq: 3}, Data: []byte("three"), Trace: 0xBEEF},
	}}
	got, err := DecodeBatch(EncodeBatch(traced))
	if err != nil {
		t.Fatal(err)
	}
	if got.Items[0].Trace != 0 || got.Items[1].Trace != 0xFEED || got.Items[2].Trace != 0xBEEF {
		t.Fatalf("batch traces misdecoded: %+v", got.Items)
	}

	plain := traced
	plain.Items = []BatchItem{
		{PID: ProposalID{Proposer: "a1", Seq: 1}, Data: []byte("one")},
		{PID: ProposalID{Proposer: "a2", Seq: 2}, Data: []byte("two")},
	}
	buf := EncodeBatch(plain)
	rt, err := DecodeBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeBatch(rt), buf) {
		t.Fatal("unsampled batch re-encode diverged")
	}
	for _, it := range rt.Items {
		if it.Trace != 0 {
			t.Fatalf("unsampled batch decoded with trace: %+v", it)
		}
	}
}

func TestCommitNotifyTermRoundTrip(t *testing.T) {
	in := CommitNotify{PID: ProposalID{Proposer: "p", Seq: 77}, Index: 5, Term: 3}
	buf, err := AppendEnvelope(nil, Envelope{From: "l", To: "p", Layer: LayerLocal, Msg: in})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEnvelope(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Msg.(CommitNotify) != in {
		t.Fatalf("round trip = %+v, want %+v", got.Msg, in)
	}
	// Nested in a ShardBatch the body decodes the same way.
	buf, err = AppendEnvelope(nil, Envelope{From: "l", To: "p", Layer: LayerLocal,
		Msg: ShardBatch{Frames: []ShardFrame{{Group: "g", Layer: LayerLocal, Msg: in}}}})
	if err != nil {
		t.Fatal(err)
	}
	if got, err = DecodeEnvelope(buf); err != nil {
		t.Fatal(err)
	}
	if m := got.Msg.(ShardBatch).Frames[0].Msg.(CommitNotify); m != in {
		t.Fatalf("nested round trip = %+v, want %+v", m, in)
	}
}

// appendFrame is the 10-entry AppendEntries frame the allocation gates use.
func appendFrame() Envelope {
	entries := make([]Entry, 10)
	for i := range entries {
		entries[i] = Entry{Index: Index(i + 1), Term: 3, Kind: KindNormal, Approval: ApprovedLeader,
			PID: ProposalID{Proposer: "n2", Seq: uint64(i + 1)}, Data: []byte("payload-payload-payload")}
	}
	return Envelope{From: "n1", To: "n2", Layer: LayerLocal, Msg: AppendEntries{
		Term: 3, LeaderID: "n1", PrevLogIndex: 10, PrevLogTerm: 3,
		Entries: entries, LeaderCommit: 9, Round: 77}}
}

// TestAppendEnvelopeReusedBufferAllocs pins the transport's steady-state
// encode: a 10-entry AppendEntries re-encoded into a reused buffer
// allocates nothing.
func TestAppendEnvelopeReusedBufferAllocs(t *testing.T) {
	env := appendFrame()
	buf, err := AppendEnvelope(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf, err = AppendEnvelope(buf[:0], env)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("reused-buffer AppendEntries encode: %.1f allocs, want 0", allocs)
	}
}

// TestDecodeEnvelopeCopiesFrameOnce pins decode's side of the ownership
// rule: the payloads come out of one copy of the frame, so the transport
// may reuse its datagram buffer at once, and the 10-entry frame costs five
// allocations (the arena, its two node IDs, the boxed message and the
// entry pool's slice header), not one per field.
func TestDecodeEnvelopeCopiesFrameOnce(t *testing.T) {
	buf, err := AppendEnvelope(nil, appendFrame())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if env, err := DecodeEnvelope(buf); err == nil {
			RecycleEnvelope(env)
		}
	})
	if allocs > 5 {
		t.Fatalf("10-entry AppendEntries decode: %.1f allocs, want at most 5", allocs)
	}
	env, err := DecodeEnvelope(buf)
	if err != nil {
		t.Fatal(err)
	}
	clear(buf)
	for _, e := range env.Msg.(AppendEntries).Entries {
		if string(e.Data) != "payload-payload-payload" || e.PID.Proposer != "n2" {
			t.Fatalf("decoded entry aliases the datagram: %v %q", e, e.Data)
		}
	}
}

// FuzzDecodeEnvelope feeds arbitrary datagrams to the decoder. It must never
// panic, and any envelope it accepts must re-encode and decode to a
// deep-equal envelope. The seeds are every sample frame and traced carrier,
// so plain `go test` replays them.
func FuzzDecodeEnvelope(f *testing.F) {
	for _, msg := range append(sampleMessages(), tracedCarriers()...) {
		buf, err := AppendEnvelope(nil, Envelope{From: "a", To: "b", Layer: LayerGlobal, Group: "g7", Msg: msg})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeEnvelope(data)
		if err != nil {
			return
		}
		buf, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatalf("decoded %s does not re-encode: %v", env.Msg.MsgName(), err)
		}
		again, err := DecodeEnvelope(buf)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", env.Msg.MsgName(), err)
		}
		if !reflect.DeepEqual(env, again) {
			t.Fatalf("re-encode changed the envelope:\n first: %#v\nsecond: %#v", env, again)
		}
	})
}
