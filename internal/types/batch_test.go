package types

import "testing"

// FuzzBatchHeader checks BatchHeader against DecodeBatch on arbitrary
// bytes: both accept or both reject, and on acceptance they agree on the
// cluster, the sequence and the item count. The seeds (replayed by go test)
// are encoded batches, traced and untraced, and damaged copies of them.
func FuzzBatchHeader(f *testing.F) {
	for _, b := range []Batch{
		{},
		{Cluster: "c1", Seq: 7},
		{Cluster: "c2", Seq: 1, Items: []BatchItem{{PID: ProposalID{Proposer: "n1", Seq: 3}, Data: []byte("x")}}},
		{Cluster: "c3", Seq: 1 << 40, Items: []BatchItem{
			{PID: ProposalID{Proposer: "n1", Seq: 1}, Data: []byte("a"), Trace: 9},
			{PID: ProposalID{Proposer: "n2", Seq: 2}},
			{PID: ProposalID{Proposer: "n1", Seq: 3}, Data: []byte("ccc"), Trace: 1 << 50},
		}},
	} {
		data := EncodeBatch(b)
		f.Add(data)
		for cut := 1; cut < len(data); cut += 3 {
			f.Add(data[:cut])
		}
		f.Add(append(append([]byte(nil), data...), 5, 1)) // trace index out of range
		f.Add(append(append([]byte(nil), data...), 0))    // a lone trailing varint
	}
	f.Add([]byte{0, 1, 0x7f})             // item count beyond the payload
	f.Add([]byte{0, 1, 0x80, 0x80, 0x80}) // unterminated varint
	f.Fuzz(func(t *testing.T, data []byte) {
		cluster, seq, items, err := BatchHeader(data)
		b, derr := DecodeBatch(data)
		if (err == nil) != (derr == nil) {
			t.Fatalf("BatchHeader err %v, DecodeBatch err %v", err, derr)
		}
		if err != nil {
			return
		}
		if string(cluster) != string(b.Cluster) || seq != b.Seq || items != len(b.Items) {
			t.Fatalf("header (%q, %d, %d), decoded (%q, %d, %d)",
				cluster, seq, items, b.Cluster, b.Seq, len(b.Items))
		}
	})
}
