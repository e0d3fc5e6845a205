package hraft

import (
	"context"
	"errors"
	"sync"

	"github.com/hraft-io/hraft/internal/types"
)

// SessionID identifies a client session: the log index at which the
// session's registration entry committed, so every replica derives the
// same identity.
type SessionID = types.SessionID

// ErrSessionExpired is returned by Session.Propose when the session is no
// longer known to the cluster (expired by TTL or evicted by the session
// cap) or when the cached response for a retried sequence has been
// dropped. The proposal was NOT applied; the client must open a fresh
// session and decide for itself whether to re-submit.
var ErrSessionExpired = errors.New("hraft: session expired or response no longer cached")

// Session is a client-session handle providing exactly-once proposal
// semantics: proposals carry a (SessionID, sequence) identity that
// survives node restarts and log compaction, so a retry whose original
// commit acknowledgment was lost returns the original commit index
// instead of committing a second time.
//
// A Session is safe for concurrent use, but proposals are serialized:
// sequence order is part of the exactly-once contract (a higher sequence
// committing first would make the replicas classify the lower one as an
// old duplicate), so each Propose/ProposeAt waits for the previous one to
// finish. Use separate sessions for independent concurrent streams. To
// resume a session after a process restart, persist the ID and the last
// used sequence number and reattach with AttachSession.
type Session struct {
	id      SessionID
	propose func(ctx context.Context, sid SessionID, seq, ack uint64, data []byte) (Index, error)

	// seqMu guards the sequence counter and ack floor; flightMu serializes
	// in-flight proposals so sequences reach the log in order.
	seqMu    sync.Mutex
	seq      uint64
	ack      uint64
	flightMu sync.Mutex
}

// ID returns the session identity (persist it to reattach after a
// restart).
func (s *Session) ID() SessionID { return s.id }

// LastSeq returns the highest sequence number this handle has assigned
// (persist it alongside the ID to reattach after a restart).
func (s *Session) LastSeq() uint64 {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	return s.seq
}

// Ack records the client's retry floor: a promise that no sequence below
// lowestSeq will ever be retried on this session. The floor piggybacks on
// the next Propose/ProposeAt, letting every replica drop the session's
// cached responses below it immediately instead of holding them until the
// per-session cap evicts them. Acknowledging a sequence you later retry
// surfaces as ErrSessionExpired — the cached response is gone. The floor
// only moves forward; a lower value is ignored.
func (s *Session) Ack(lowestSeq uint64) {
	s.seqMu.Lock()
	if lowestSeq > s.ack {
		s.ack = lowestSeq
	}
	s.seqMu.Unlock()
}

// Propose submits an entry under the next session sequence and waits for
// it to commit, returning its log index. If the context expires, the
// assigned sequence is burned and the proposal may still commit later —
// resolve it by retrying the same payload with ProposeAt(LastSeq()) before
// submitting anything new, to preserve exactly-once semantics.
func (s *Session) Propose(ctx context.Context, data []byte) (Index, error) {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	s.seqMu.Lock()
	s.seq++
	seq, ack := s.seq, s.ack
	s.seqMu.Unlock()
	return s.proposeSerialized(ctx, seq, ack, data)
}

// ProposeAt submits an entry under an explicit session sequence: the retry
// path after a crash or timeout. If the sequence was already applied —
// even before a restart, even below a compacted log prefix — the original
// commit index is returned and the state machine does not apply the entry
// a second time.
func (s *Session) ProposeAt(ctx context.Context, seq uint64, data []byte) (Index, error) {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	s.seqMu.Lock()
	if seq > s.seq {
		s.seq = seq
	}
	ack := s.ack
	s.seqMu.Unlock()
	return s.proposeSerialized(ctx, seq, ack, data)
}

// proposeSerialized runs one proposal; callers hold flightMu.
func (s *Session) proposeSerialized(ctx context.Context, seq, ack uint64, data []byte) (Index, error) {
	idx, err := s.propose(ctx, s.id, seq, ack, data)
	if err != nil {
		return 0, err
	}
	if idx == 0 {
		// Resolution index 0 is the cores' session-rejected signal.
		return 0, ErrSessionExpired
	}
	return idx, nil
}
