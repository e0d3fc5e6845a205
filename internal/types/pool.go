package types

import "sync"

// Pooled entry slices for the replication hot path.
//
// Every AppendEntries message carries an []Entry that previously lived for
// exactly one encode (or one decode + handler call) before becoming garbage.
// The pool recycles those backing arrays. Only the slice itself is pooled —
// the Data payloads inside the entries are never reused, so an entry copied
// out of a pooled slice (as the cores do when installing entries into their
// logs) stays valid after the slice is recycled.
//
// Every transport follows one ownership rule (runtime.Transport): Send takes
// the envelope, and a delivered envelope belongs to the handler only until
// it returns. So the transport is each envelope's last owner and recycles
// it: the UDP transport once the datagram is encoded and once the receive
// handler returns, the in-process network once the receiving endpoint's
// handler returns (or when it drops the envelope). A sender therefore never
// reuses a message slice it sent, and a handler copies what it keeps.

// entryPool holds *[]Entry so a Put does not box a slice header; boxes
// holds the emptied *[]Entry wrappers GetEntries leaves behind, which
// RecycleEntries refills, so neither direction allocates in steady state.
var (
	entryPool = sync.Pool{
		New: func() any { s := make([]Entry, 0, 32); return &s },
	}
	boxes sync.Pool
)

// GetEntries returns an empty entry slice with capacity for at least the
// hint (pool-recycled when possible). Callers append into it and may pass
// the filled slice through an Envelope; see RecycleEnvelope for give-back.
func GetEntries(hint int) []Entry {
	p := entryPool.Get().(*[]Entry)
	s := (*p)[:0]
	*p = nil
	boxes.Put(p)
	if cap(s) < hint {
		s = make([]Entry, 0, hint)
	}
	return s
}

// RecycleEntries returns a slice obtained from GetEntries (or any
// single-owner entry slice) to the pool. Elements are zeroed first so the
// pool does not pin Data payloads or Config memberships.
func RecycleEntries(es []Entry) {
	if cap(es) == 0 {
		return
	}
	clear(es[:cap(es)])
	p, _ := boxes.Get().(*[]Entry)
	if p == nil {
		p = new([]Entry)
	}
	*p = es[:0]
	entryPool.Put(p)
}

// RecycleEnvelope returns the recyclable parts of a message to the pools.
// Call it only as the envelope's last owner: a transport after encoding it
// onto the wire, after the receive handler returned, or when dropping it.
func RecycleEnvelope(env Envelope) {
	recycleMessage(env.Msg)
}

func recycleMessage(m Message) {
	switch v := m.(type) {
	case AppendEntries:
		RecycleEntries(v.Entries)
	case RequestVoteResp:
		RecycleEntries(v.SelfApproved)
	case ShardBatch:
		for _, f := range v.Frames {
			recycleMessage(f.Msg)
		}
	}
}

// Drain appends *src to dst and empties *src in place, zeroing what it held
// so the buffer pins no payloads: the owner keeps the capacity for its next
// outputs and the caller owns dst. It is how the cores hand their output
// buffers to a host without allocating a new one per drain.
func Drain[T any](dst []T, src *[]T) []T {
	dst = append(dst, *src...)
	clear(*src)
	*src = (*src)[:0]
	return dst
}
