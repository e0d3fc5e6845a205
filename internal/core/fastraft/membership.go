package fastraft

import (
	"sort"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

// sortedKeys returns a map's keys in deterministic order; the simulator
// depends on every behavioural iteration being reproducible.
func sortedKeys(m map[types.NodeID]bool) []types.NodeID {
	if len(m) == 0 {
		return nil // the common case, on every heartbeat: no allocation
	}
	out := make([]types.NodeID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// --- Joiner side -----------------------------------------------------------

// Join starts the join protocol from this (non-member) site: send a join
// request to the given contacts and retry every JoinTimeout until accepted.
func (n *Node) Join(now time.Duration, contacts []types.NodeID) {
	n.now = now
	n.joinTargets = append([]types.NodeID(nil), contacts...)
	n.sendJoinRequest()
}

func (n *Node) sendJoinRequest() {
	targets := n.joinTargets
	if len(targets) == 0 {
		// Rejoin after removal: contact current configuration members.
		targets = n.Config().Others(n.cfg.ID)
	}
	if n.leaderID != types.None && n.leaderID != n.cfg.ID {
		n.send(n.leaderID, types.JoinRequest{Site: n.cfg.ID})
	} else {
		for _, t := range targets {
			n.send(t, types.JoinRequest{Site: n.cfg.ID})
		}
	}
	n.joinDeadline = n.now + n.cfg.JoinTimeout
}

// tickJoiner re-sends pending join requests and triggers automatic rejoin
// when a live member discovers it was removed.
func (n *Node) tickJoiner(now time.Duration) {
	if n.joinDeadline != 0 && now >= n.joinDeadline {
		if n.IsMember() && !n.rejoining {
			// Join completed (we saw the config entry); stop retrying. A
			// rejoining site keeps retrying even though its own stale log
			// still lists it as a member.
			n.joinDeadline = 0
			n.joinTargets = nil
			return
		}
		n.sendJoinRequest()
	}
	if n.cfg.AutoRejoin && n.joinDeadline == 0 && !n.IsMember() &&
		n.Config().Size() > 0 && n.role == types.RoleFollower {
		// We know a configuration that excludes us (silent-leave
		// misdetection or an announced leave we did not intend): rejoin.
		n.sendJoinRequest()
	}
}

func (n *Node) onJoinRedirect(m types.JoinRedirect) {
	if m.Leader == types.None || m.Leader == n.cfg.ID {
		return
	}
	n.leaderID = m.Leader
	if n.joinDeadline != 0 && !n.IsMember() {
		n.send(m.Leader, types.JoinRequest{Site: n.cfg.ID})
	}
}

func (n *Node) onJoinAccepted(m types.JoinAccepted) {
	n.joinDeadline = 0
	n.joinTargets = nil
	n.rejoining = false
	n.lonelyElections = 0
	_ = m
}

// Leave announces that this site wants to leave the configuration.
func (n *Node) Leave(now time.Duration) {
	n.now = now
	if n.role == types.RoleLeader {
		// A leader cannot remove itself directly; it enqueues its own
		// removal and keeps serving until the configuration commits, after
		// which reactToConfig steps it down.
		n.enqueueRemoval(n.cfg.ID)
		return
	}
	if n.leaderID != types.None {
		n.send(n.leaderID, types.LeaveRequest{Site: n.cfg.ID})
		return
	}
	for _, peer := range n.Config().Others(n.cfg.ID) {
		n.send(peer, types.LeaveRequest{Site: n.cfg.ID})
	}
}

// reactToConfig runs on followers after log changes: if the latest
// configuration no longer contains this site, it stops acting as a member
// (the rejoin logic may bring it back).
func (n *Node) reactToConfig() {
	if n.role == types.RoleLeader {
		return
	}
	// Nothing else to do: acceptFrom and startElection consult the
	// configuration directly. The hook exists for symmetry and future
	// instrumentation.
}

// --- Leader side -----------------------------------------------------------

func (n *Node) onJoinRequest(from types.NodeID, m types.JoinRequest) {
	if n.role != types.RoleLeader {
		n.send(from, types.JoinRedirect{Leader: n.leaderID})
		return
	}
	site := m.Site
	cfg := n.Config()
	if cfg.Contains(site) {
		// Already a member (duplicate request after commit).
		_, ci := n.log.Config()
		n.send(site, types.JoinAccepted{ConfigIndex: ci})
		return
	}
	if n.nonvoting[site] {
		return // duplicate request; catch-up already in progress
	}
	// Start catching the site up as a non-voting member, probing from the
	// log start (the snapshot path takes over if that is compacted away).
	n.nonvoting[site] = true
	n.pendingJoin[site] = true
	n.progress.Ensure(site, 1)
}

func (n *Node) onLeaveRequest(m types.LeaveRequest) {
	if n.role != types.RoleLeader {
		if n.leaderID != types.None {
			n.send(n.leaderID, m)
		}
		return
	}
	n.enqueueRemoval(m.Site)
}

func (n *Node) enqueueRemoval(site types.NodeID) {
	if !n.Config().Contains(site) {
		return
	}
	for _, q := range n.removeQueue {
		if q == site {
			return
		}
	}
	n.removeQueue = append(n.removeQueue, site)
}

// configChangeInFlight reports whether a configuration entry is inserted
// but not yet committed; the paper requires changes to serialize.
func (n *Node) configChangeInFlight() bool {
	_, ci := n.log.Config()
	return ci > n.commitIndex
}

// processMembership is the leader's periodic membership duty: detect
// silent leaves, then start at most one configuration change at a time —
// removals first, then joins whose catch-up completed.
func (n *Node) processMembership() {
	n.detectSilentLeaves()
	if n.configChangeInFlight() {
		return
	}
	cfg := n.Config()
	// Removals take priority: a shrinking quorum restores liveness.
	for len(n.removeQueue) > 0 {
		site := n.removeQueue[0]
		n.removeQueue = n.removeQueue[1:]
		if !cfg.Contains(site) {
			continue
		}
		n.appendLeaderEntry(types.ConfigEntry(cfg.WithoutMember(site), types.ProposalID{}))
		return
	}
	// Then at most one join whose catch-up has completed: the site has
	// acknowledged everything dispatched through the previous broadcast
	// round (which covers everything committed as of that round). The live
	// head — and, on the fast track, the live commit index with it —
	// advances at every tick just before this check runs, so judging
	// against either would starve joins forever under continuous proposal
	// traffic; the one-round tail replicates normally once the site is a
	// member.
	for _, site := range sortedKeys(n.nonvoting) {
		if m := n.progress.Match(site); m >= n.lastBroadcastHead {
			n.appendLeaderEntry(types.ConfigEntry(cfg.WithMember(site), types.ProposalID{}))
			return
		}
	}
}

// detectSilentLeaves turns members whose missed-response count reached the
// member timeout into queued removals, and drops vanished joiners.
func (n *Node) detectSilentLeaves() {
	if n.cfg.MemberTimeoutRounds <= 0 {
		return
	}
	for _, peer := range n.Config().Members {
		if peer != n.cfg.ID && n.missed[peer] >= n.cfg.MemberTimeoutRounds {
			n.enqueueRemoval(peer)
		}
	}
	for _, site := range sortedKeys(n.nonvoting) {
		if n.missed[site] >= 4*n.cfg.MemberTimeoutRounds {
			delete(n.nonvoting, site)
			delete(n.pendingJoin, site)
		}
	}
}

// onConfigChangedAsLeader runs when the leader appends a configuration
// entry: the new configuration takes effect immediately for quorum sizing
// (standard single-change Raft rule), so leader-state maps must cover new
// members.
func (n *Node) onConfigChangedAsLeader() {
	cfg := n.Config()
	// Membership change: the read quorum is counted over the new
	// configuration from here on, and the old quorum's lease is void.
	if n.readMgr != nil {
		n.readMgr.SetMembership(cfg.Members)
	}
	for _, peer := range cfg.Members {
		n.progress.Ensure(peer, n.commitIndex+1)
	}
	for site := range n.nonvoting {
		if cfg.Contains(site) {
			delete(n.nonvoting, site)
		}
	}
	// Drop progress for removed members (a lingering snapshot-stream entry
	// would otherwise keep the encoding cache pinned and count toward
	// AnySnapshotStreams forever).
	for _, peer := range n.progress.Peers() {
		if !cfg.Contains(peer) && !n.nonvoting[peer] {
			n.progress.Remove(peer)
		}
	}
}

// onConfigCommittedAsLeader finalizes a committed configuration change:
// notify accepted joiners and step down if the leader removed itself.
func (n *Node) onConfigCommittedAsLeader(e types.Entry) {
	cfg := *e.Config
	for _, site := range sortedKeys(n.pendingJoin) {
		if cfg.Contains(site) {
			delete(n.pendingJoin, site)
			n.send(site, types.JoinAccepted{ConfigIndex: e.Index})
		}
	}
	if !cfg.Contains(n.cfg.ID) {
		// The leader left the configuration; stop leading. Remaining
		// members elect a successor via election timeout.
		n.becomeFollower(n.term, types.None)
	}
}
