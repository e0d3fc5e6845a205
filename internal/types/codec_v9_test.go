package types

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// Frame v9 pins. The v9 change is CommitNotify.Term; nothing else moved.

func TestCommitNotifyTermRoundTrip(t *testing.T) {
	in := CommitNotify{PID: ProposalID{Proposer: "p", Seq: 77}, Index: 5, Term: 3}
	buf, err := EncodeEnvelope(Envelope{From: "l", To: "p", Layer: LayerLocal, Msg: in})
	if err != nil {
		t.Fatal(err)
	}
	if buf[2] != 9 {
		t.Fatalf("version byte = %d, want 9", buf[2])
	}
	got, err := DecodeEnvelope(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Msg.(CommitNotify) != in {
		t.Fatalf("round trip = %+v, want %+v", got.Msg, in)
	}
	// Nested in a ShardBatch the frame version still reaches the body.
	buf, err = EncodeEnvelope(Envelope{From: "l", To: "p", Layer: LayerLocal,
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

// TestDecodeV8CommitNotifyUnderV9: a v8 sender's notification (no Term on
// the wire) decodes with Term zero, which receivers read as "notification
// only" — exactly what a v8 notification meant.
func TestDecodeV8CommitNotifyUnderV9(t *testing.T) {
	var w writer
	w.buf = append(w.buf, 0xC4, 0xAF, 8, tagCommitNotify)
	w.str("l")
	w.str("p")
	w.buf = append(w.buf, byte(LayerLocal))
	w.str("g1")
	w.str("p")
	w.u64(77)
	w.u64(5)
	got, err := DecodeEnvelope(w.buf)
	if err != nil {
		t.Fatalf("v8 CommitNotify rejected: %v", err)
	}
	want := CommitNotify{PID: ProposalID{Proposer: "p", Seq: 77}, Index: 5}
	if got.Msg.(CommitNotify) != want || got.Group != "g1" {
		t.Fatalf("v8 CommitNotify misdecoded: %+v", got)
	}
}

// TestV9BodiesByteIdenticalToV8 pins that v9 touched CommitNotify alone: the
// digest is of the v8 encoder's output (everything after the version byte)
// over sampleMessages, taken at the last v8 commit.
func TestV9BodiesByteIdenticalToV8(t *testing.T) {
	const v8Digest = "ecfe8c8d33bbd39a29add5200fae41eec532eede9119f38563c603c103cc89ae"
	h := sha256.New()
	for _, msg := range sampleMessages() {
		if _, ok := msg.(CommitNotify); ok {
			continue
		}
		buf, err := EncodeEnvelope(Envelope{From: "a", To: "b", Layer: LayerGlobal, Group: "g7", Msg: msg})
		if err != nil {
			t.Fatalf("%s: encode: %v", msg.MsgName(), err)
		}
		h.Write(buf[3:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != v8Digest {
		t.Fatalf("a v9 body other than CommitNotify diverged from its v8 layout (digest %s)", got)
	}
}
