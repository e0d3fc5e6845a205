package hraft

import (
	"context"
	"errors"
	"sync"
	"time"

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

// errProposalAborted reports that a submit callback declined to propose;
// callers that can abort (ShardNode.Split/Merge) replace it with the
// specific validation error.
var errProposalAborted = errors.New("hraft: proposal aborted before submission")

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

// --- Waiter plumbing shared by the three node wrappers ----------------------

// proposalWaiters is the per-wrapper bookkeeping that turns proposal
// resolutions into completed Propose calls; every node type has one through
// base, whose await is the single implementation of submit-and-await.
type proposalWaiters struct {
	mu      sync.Mutex
	waiters map[ProposalID]chan Index
	stopped bool
}

// resolve completes a waiting proposal (wired as the host's OnResolve).
func (w *proposalWaiters) resolve(r types.Resolution) {
	w.mu.Lock()
	ch, ok := w.waiters[r.PID]
	if ok {
		delete(w.waiters, r.PID)
	}
	w.mu.Unlock()
	if ok {
		ch <- r.Index
	}
}

// markStopped makes subsequent awaits fail fast with ErrStopped.
func (w *proposalWaiters) markStopped() {
	w.mu.Lock()
	w.stopped = true
	w.mu.Unlock()
}

// await runs submit on the host, registers a waiter for the returned
// proposal and blocks until it resolves or ctx expires. The zero index is
// passed through to callers (session rejection).
func (b *base[C]) await(ctx context.Context, submit func(now time.Duration) ProposalID) (Index, error) {
	w := &b.proposalWaiters
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return 0, ErrStopped
	}
	w.mu.Unlock()
	ch := make(chan Index, 1)
	var pid ProposalID
	b.host.Do(func(now time.Duration) {
		pid = submit(now)
		if pid == (ProposalID{}) {
			return
		}
		w.mu.Lock()
		w.waiters[pid] = ch
		w.mu.Unlock()
	})
	// A zero ID means submit aborted before proposing (e.g. an invalid
	// shard split); nothing will ever resolve it.
	if pid == (ProposalID{}) {
		return 0, errProposalAborted
	}
	select {
	case idx := <-ch:
		return idx, nil
	case <-ctx.Done():
		w.mu.Lock()
		delete(w.waiters, pid)
		w.mu.Unlock()
		return 0, ctx.Err()
	}
}

// --- Node and RaftNode (one Fast Raft core) ----------------------------------

// OpenSession registers a new client session and waits for the
// registration to commit. The resulting Session provides exactly-once
// Propose semantics across retries, node restarts and log compaction.
func (n *site) OpenSession(ctx context.Context) (*Session, error) {
	idx, err := n.await(ctx, func(now time.Duration) ProposalID {
		return n.fr.OpenSession(now)
	})
	if err != nil {
		return nil, err
	}
	return n.AttachSession(SessionID(idx), 0), nil
}

// AttachSession resumes a previously opened session from its persisted ID
// and last used sequence number (e.g. after the client process
// restarted). Attaching does not verify the session still exists; an
// expired session surfaces as ErrSessionExpired on the next Propose.
func (n *site) AttachSession(id SessionID, lastSeq uint64) *Session {
	return &Session{
		id:  id,
		seq: lastSeq,
		propose: func(ctx context.Context, sid SessionID, seq, ack uint64, data []byte) (Index, error) {
			return n.await(ctx, func(now time.Duration) ProposalID {
				return n.fr.ProposeSession(now, sid, seq, ack, data)
			})
		},
	}
}

// --- CRaftNode (hierarchical) -----------------------------------------------

// OpenSession registers a new client session at the intra-cluster level:
// duplicates are withheld from the local commit stream, and therefore
// never reach the global batch log twice either.
func (n *CRaftNode) OpenSession(ctx context.Context) (*Session, error) {
	idx, err := n.await(ctx, func(now time.Duration) ProposalID {
		return n.cn.OpenSession(now)
	})
	if err != nil {
		return nil, err
	}
	return n.AttachSession(SessionID(idx), 0), nil
}

// AttachSession resumes a previously opened session (see
// Node.AttachSession).
func (n *CRaftNode) AttachSession(id SessionID, lastSeq uint64) *Session {
	return &Session{
		id:  id,
		seq: lastSeq,
		propose: func(ctx context.Context, sid SessionID, seq, ack uint64, data []byte) (Index, error) {
			return n.await(ctx, func(now time.Duration) ProposalID {
				return n.cn.ProposeSession(now, sid, seq, ack, data)
			})
		},
	}
}
