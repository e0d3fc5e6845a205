package fastraft

import (
	"fmt"
	"time"

	"github.com/hraft-io/hraft/internal/session"
	"github.com/hraft-io/hraft/internal/types"
)

// Client sessions (exactly-once proposals).
//
// The registry in internal/session is replicated through the log itself:
// KindSessionOpen entries create sessions (the commit index is the session
// ID), KindSessionExpire entries carry the leader's clock and expire idle
// sessions identically on every replica, and session-tagged KindNormal
// entries are deduplicated by (SessionID, SessionSeq) at apply time. A
// duplicate still occupies its log slot — Fast Raft retries may reach the
// log twice legitimately — but is never delivered to the state machine;
// the proposer is answered with the cached commit index of the original.

// OpenSession proposes a session-registration entry. The proposal resolves
// with the commit index of the entry, which is the new session's ID.
func (n *Node) OpenSession(now time.Duration) types.ProposalID {
	return n.ProposeEntry(now, types.Entry{Kind: types.KindSessionOpen})
}

// ProposeSession submits an application entry under (sid, seq): an identity
// that, unlike the ProposalID, survives proposer restarts. A retry of an
// already-applied sequence resolves immediately with the cached commit
// index. The session must have been opened (its KindSessionOpen entry
// committed) before the first ProposeSession under it. ack is the client's
// retry floor (0 = none): sequences below it are promised never to be
// retried, so every replica drops their cached responses when the entry
// commits.
func (n *Node) ProposeSession(now time.Duration, sid types.SessionID, seq, ack uint64, data []byte) types.ProposalID {
	n.now = now
	n.proposalSeq++
	pid := types.ProposalID{Proposer: n.cfg.ID, Seq: n.proposalSeq}
	if idx, dup := n.sessions.LookupDup(sid, seq); dup {
		n.resolved = append(n.resolved, types.Resolution{PID: pid, Index: idx})
		return pid
	}
	e := types.Entry{
		Kind:       types.KindNormal,
		Session:    sid,
		SessionSeq: seq,
		SessionAck: ack,
		Data:       append([]byte(nil), data...),
	}
	return n.ProposeEntryPID(now, e, pid)
}

// applySessionCommit folds one committed entry into the session registry.
// It reports whether the entry must be withheld from the state machine: a
// duplicate of an applied (session, seq), or a session proposal whose
// session is gone (expired) — in both cases the proposer is answered
// out-of-band instead.
func (n *Node) applySessionCommit(e types.Entry) (skip bool) {
	switch e.Kind {
	case types.KindSessionOpen:
		n.sessions.ApplyOpen(e.Index)
		n.rec.SessionOpen(n.now, uint64(e.Index))
		return false
	case types.KindSessionExpire:
		advance, ttl, err := session.DecodeExpire(e.Data)
		if err != nil {
			panic(fmt.Sprintf("fastraft %s: corrupt session clock entry at %d: %v", n.cfg.ID, e.Index, err))
		}
		n.sessions.ApplyExpire(advance, ttl)
		n.rec.SessionExpire(n.now, n.sessions.Len())
		return false
	case types.KindNormal:
		if e.Session.IsZero() {
			return false
		}
		cached, dup, known := n.sessions.ApplyNormal(e.Session, e.SessionSeq, e.SessionAck, e.Index)
		if !known {
			// Session expired (or never opened): with the dedup state gone
			// this apply could be a second one — reject it. Index 0 in the
			// resolution signals the rejection to the proposer.
			n.answerProposer(e.PID, 0, false)
			return true
		}
		if dup {
			n.answerProposer(e.PID, cached, false)
			return true
		}
		n.rec.ApplySession(n.now, e.Index, uint64(e.Session), e.SessionSeq)
		return false
	default:
		return false
	}
}

// answerProposer resolves a proposal out-of-band (session duplicate or
// rejection): locally when this site originated it, by CommitNotify
// otherwise. Remote notification is leader-only unless direct is set (the
// direct path mirrors the existing any-site duplicate notification on
// ProposeEntry receipt; the apply path is leader-only so one commit does
// not trigger a notification from every replica). The notification carries
// no Term: idx is where the session's original committed, which need not be
// an entry under this pid, so the proposer resolves and commits nothing.
func (n *Node) answerProposer(pid types.ProposalID, idx types.Index, direct bool) {
	if pid.IsZero() {
		return
	}
	if pid.Proposer == n.cfg.ID {
		n.resolvePending(pid, idx)
		return
	}
	if direct || n.role == types.RoleLeader {
		n.send(pid.Proposer, types.CommitNotify{PID: pid, Index: idx})
	}
}

// maybeSessionClock lets the leader pace session expiry: while sessions
// exist and a TTL is configured, it periodically appends a clock entry so
// every replica advances the same deterministic clock and expires the same
// sessions.
func (n *Node) maybeSessionClock() {
	ttl := n.cfg.SessionTTL
	if ttl <= 0 || n.sessions.Len() == 0 {
		return
	}
	interval := ttl / 4
	if interval <= 0 {
		interval = ttl
	}
	if n.lastSessionClock != 0 && n.now < n.lastSessionClock+interval {
		return
	}
	// The entry carries the advance since this leader's previous clock
	// entry, not an absolute timestamp: the first entry of a leadership
	// advances 0 (the gap to the predecessor's last entry is unknowable),
	// and subsequent ones track this process's monotonic clock — so the
	// replicated clock never stalls or jumps across leader changes.
	var advance time.Duration
	if n.lastSessionClock != 0 {
		advance = n.now - n.lastSessionClock
	}
	n.lastSessionClock = n.now
	n.appendLeaderEntry(types.Entry{
		Kind: types.KindSessionExpire,
		Data: session.EncodeExpire(uint64(advance), uint64(ttl)),
	})
}

// sessionStateAt reconstructs the session registry image as of a snapshot
// boundary by replaying the retained entries above the previous boundary.
// The live registry cannot be used directly: it reflects the commit index,
// which may run ahead of the boundary when the application applies
// asynchronously.
func (n *Node) sessionStateAt(boundary types.Index) []byte {
	img, err := session.StateAt(n.snap.Sessions, n.log.Range(n.log.FirstIndex(), boundary))
	if err != nil {
		panic(fmt.Sprintf("fastraft %s: rebuild session state: %v", n.cfg.ID, err))
	}
	return img
}
