package types

import (
	"bytes"
	"testing"
)

// Frame v8 compatibility pins. The v8 change is trace-context propagation
// behind wireTraceFlag: sampled entries, read specs/results and snapshot
// chunks grow a trace varint; unsampled bodies stay byte-identical to v7.

// encodeV7Envelope hand-encodes a frame in the v7 layout (group tag, no
// trace context anywhere) so the v8 decoder's backward compatibility can
// be pinned without keeping an old encoder around. Only traceless
// messages are representable in v7, which is the point.
func encodeV7Envelope(t *testing.T, env Envelope) []byte {
	t.Helper()
	var w writer
	w.buf = append(w.buf, 0xC4, 0xAF, 7)
	tag, err := msgTag(env.Msg)
	if err != nil {
		t.Fatal(err)
	}
	w.buf = append(w.buf, tag)
	w.str(string(env.From))
	w.str(string(env.To))
	w.buf = append(w.buf, byte(env.Layer))
	w.str(string(env.Group))
	switch v := env.Msg.(type) {
	case AppendEntries:
		w.u64(uint64(v.Term))
		w.str(string(v.LeaderID))
		w.u64(uint64(v.PrevLogIndex))
		w.u64(uint64(v.PrevLogTerm))
		w.u64(uint64(len(v.Entries)))
		for _, e := range v.Entries {
			if e.TraceID != 0 {
				t.Fatalf("traced entry has no v7 encoding")
			}
			w.entry(e)
		}
		w.u64(uint64(v.LeaderCommit))
		w.u64(v.Round)
		w.u64(v.ReadCtx)
	case ReadRequest:
		w.u64(uint64(len(v.Reads)))
		for _, s := range v.Reads {
			w.u64(s.ID)
			w.buf = append(w.buf, byte(s.Consistency))
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
			w.buf = append(w.buf, ok)
		}
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
		w.buf = append(w.buf, done)
		w.u64(v.Round)
	default:
		t.Fatalf("encodeV7Envelope: unsupported %T", env.Msg)
	}
	return w.buf
}

// TestDecodeV7FramesUnderV8 pins decode compatibility with v7 senders:
// every trace-context carrier decodes with its trace ID zero and all
// surrounding fields intact.
func TestDecodeV7FramesUnderV8(t *testing.T) {
	ae := AppendEntries{Term: 9, LeaderID: "lead", PrevLogIndex: 8, PrevLogTerm: 7,
		Entries: []Entry{{Index: 9, Term: 9, Kind: KindNormal, Approval: ApprovedLeader,
			PID: ProposalID{Proposer: "p", Seq: 2}, Data: []byte("v7")}},
		LeaderCommit: 6, Round: 11, ReadCtx: 42}
	got, err := DecodeEnvelope(encodeV7Envelope(t, Envelope{From: "l", To: "f", Layer: LayerLocal, Group: "g1", Msg: ae}))
	if err != nil {
		t.Fatalf("v7 AppendEntries rejected: %v", err)
	}
	if m := got.Msg.(AppendEntries); got.Group != "g1" || m.ReadCtx != 42 ||
		len(m.Entries) != 1 || m.Entries[0].TraceID != 0 ||
		string(m.Entries[0].Data) != "v7" {
		t.Fatalf("v7 AppendEntries misdecoded: %+v", got.Msg)
	}

	rr := ReadRequest{Reads: []ReadSpec{{ID: 7, Consistency: ReadLinearizable}}}
	got, err = DecodeEnvelope(encodeV7Envelope(t, Envelope{From: "f", To: "l", Layer: LayerLocal, Msg: rr}))
	if err != nil {
		t.Fatalf("v7 ReadRequest rejected: %v", err)
	}
	if m := got.Msg.(ReadRequest); len(m.Reads) != 1 || m.Reads[0].Trace != 0 ||
		m.Reads[0].ID != 7 || m.Reads[0].Consistency != ReadLinearizable {
		t.Fatalf("v7 ReadRequest misdecoded: %+v", got.Msg)
	}

	rp := ReadReply{Results: []ReadResult{{ID: 7, Index: 99, OK: true}}}
	got, err = DecodeEnvelope(encodeV7Envelope(t, Envelope{From: "l", To: "f", Layer: LayerLocal, Msg: rp}))
	if err != nil {
		t.Fatalf("v7 ReadReply rejected: %v", err)
	}
	if m := got.Msg.(ReadReply); len(m.Results) != 1 || m.Results[0].Trace != 0 ||
		m.Results[0].Index != 99 || !m.Results[0].OK {
		t.Fatalf("v7 ReadReply misdecoded: %+v", got.Msg)
	}

	is := InstallSnapshot{Term: 13, LeaderID: "lead", Boundary: 100, Offset: 4096,
		Data: []byte{0x7E, 0x7F}, Done: true, Round: 6, Check: 0xDEADBEEF}
	got, err = DecodeEnvelope(encodeV7Envelope(t, Envelope{From: "l", To: "f", Layer: LayerLocal, Msg: is}))
	if err != nil {
		t.Fatalf("v7 InstallSnapshot rejected: %v", err)
	}
	if m := got.Msg.(InstallSnapshot); m.Trace != 0 || m.Check != 0xDEADBEEF ||
		!m.Done || m.Offset != 4096 || len(m.Data) != 2 {
		t.Fatalf("v7 InstallSnapshot misdecoded: %+v", got.Msg)
	}
}

// TestUnsampledV8BodiesByteIdenticalToV7 pins the zero-cost contract of
// the sampling default: with no trace context anywhere, the v8 encoder's
// output differs from the v7 layout in the version byte ONLY — zero
// trace-context bytes ride the wire for unsampled traffic.
func TestUnsampledV8BodiesByteIdenticalToV7(t *testing.T) {
	envs := []Envelope{
		{From: "l", To: "f", Layer: LayerLocal, Group: "g1", Msg: AppendEntries{
			Term: 9, LeaderID: "lead", PrevLogIndex: 8, PrevLogTerm: 7,
			Entries: []Entry{{Index: 9, Term: 9, Kind: KindNormal, Approval: ApprovedLeader,
				PID: ProposalID{Proposer: "p", Seq: 2}, Data: []byte("steady")}},
			LeaderCommit: 6, Round: 11, ReadCtx: 42}},
		{From: "f", To: "l", Layer: LayerLocal, Msg: ReadRequest{
			Reads: []ReadSpec{{ID: 7, Consistency: ReadLinearizable}}}},
		{From: "l", To: "f", Layer: LayerLocal, Msg: ReadReply{
			Results: []ReadResult{{ID: 7, Index: 99, OK: true}}}},
		{From: "l", To: "f", Layer: LayerLocal, Msg: InstallSnapshot{
			Term: 13, LeaderID: "lead", Boundary: 100, Offset: 4096,
			Data: []byte{0x7E}, Done: true, Round: 6, Check: 7}},
	}
	for _, env := range envs {
		v8, err := EncodeEnvelope(env)
		if err != nil {
			t.Fatalf("%s: encode: %v", env.Msg.MsgName(), err)
		}
		v7 := encodeV7Envelope(t, env)
		if v8[2] != wireVersion || v7[2] != 7 {
			t.Fatalf("%s: version bytes %d/%d", env.Msg.MsgName(), v8[2], v7[2])
		}
		if !bytes.Equal(v8[3:], v7[3:]) {
			t.Errorf("%s: unsampled v8 body diverged from v7 layout:\nv8: %x\nv7: %x",
				env.Msg.MsgName(), v8[3:], v7[3:])
		}
	}
}

// TestTraceFlagRejectedOnPreV8Frames pins the decode gate: the trace
// presence bit on a frame claiming an older version is a corrupt frame
// (legitimate old senders never set it), not a silent misdecode.
func TestTraceFlagRejectedOnPreV8Frames(t *testing.T) {
	env := Envelope{From: "l", To: "f", Layer: LayerLocal, Msg: AppendEntries{
		Term: 9, LeaderID: "lead", PrevLogIndex: 8, PrevLogTerm: 7,
		Entries: []Entry{{Index: 9, Term: 9, Kind: KindNormal, Approval: ApprovedLeader,
			PID: ProposalID{Proposer: "p", Seq: 2}, TraceID: 0xBEEF, Data: []byte("x")}},
		LeaderCommit: 6, Round: 11}}
	buf, err := EncodeEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEnvelope(buf); err != nil {
		t.Fatalf("traced v8 frame rejected: %v", err)
	}
	old := append([]byte(nil), buf...)
	old[2] = 7
	if _, err := DecodeEnvelope(old); err == nil {
		t.Fatal("trace flag on a v7 frame decoded without error")
	}
}

// TestTracedCarriersRoundTrip spot-checks the trace ID on every carrier
// surviving an encode/decode cycle end to end.
func TestTracedCarriersRoundTrip(t *testing.T) {
	const tid = 0xAB54A98CEB1F0A

	e := Entry{Index: 9, Term: 9, Kind: KindNormal, Approval: ApprovedSelf,
		PID: ProposalID{Proposer: "p", Seq: 2}, TraceID: tid, Data: []byte("x")}
	got, err := DecodeEntry(EncodeEntry(e))
	if err != nil || got.TraceID != tid || got.Kind != KindNormal {
		t.Fatalf("entry trace lost: %+v, %v", got, err)
	}

	env := Envelope{From: "f", To: "l", Layer: LayerLocal, Msg: ReadRequest{
		Reads: []ReadSpec{{ID: 7, Consistency: ReadLeaseBased, Trace: tid}}}}
	buf, err := EncodeEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeEnvelope(buf)
	if err != nil {
		t.Fatal(err)
	}
	if m := dec.Msg.(ReadRequest); m.Reads[0].Trace != tid ||
		m.Reads[0].Consistency != ReadLeaseBased {
		t.Fatalf("read spec trace lost: %+v", dec.Msg)
	}

	env.Msg = ReadReply{Results: []ReadResult{{ID: 7, Index: 99, OK: true, Trace: tid}}}
	buf, err = EncodeEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	if dec, err = DecodeEnvelope(buf); err != nil {
		t.Fatal(err)
	}
	if m := dec.Msg.(ReadReply); m.Results[0].Trace != tid || !m.Results[0].OK {
		t.Fatalf("read result trace lost: %+v", dec.Msg)
	}

	env.Msg = InstallSnapshot{Term: 13, LeaderID: "lead", Boundary: 100,
		Offset: 4096, Data: []byte{0x7E}, Done: true, Round: 6, Trace: tid}
	buf, err = EncodeEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	if dec, err = DecodeEnvelope(buf); err != nil {
		t.Fatal(err)
	}
	if m := dec.Msg.(InstallSnapshot); m.Trace != tid || !m.Done {
		t.Fatalf("snapshot chunk trace lost: %+v", dec.Msg)
	}
}

// TestBatchTraceSection pins the batch payload's trailing trace section:
// sampled items round-trip their context, unsampled batches encode
// byte-identically to the pre-trace layout, and a pre-trace payload (no
// tail) decodes with every trace zero.
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
	// The unsampled encoding IS the pre-trace layout: re-encoding the
	// decoded batch reproduces it bit for bit, and it ends right after the
	// last item (no tail).
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
