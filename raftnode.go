package hraft

// RaftNode is a classic Raft site — the paper's baseline — exposed so
// applications can compare protocols under identical transports and
// workloads. It runs Node's Fast Raft core with the fast track off: a
// proposal goes to the leader (forwarded as a ClientPropose when proposed
// at a follower), which appends it and commits it on a classic quorum of
// acks. Membership is static (the paper's baseline scope: no Join, Leave,
// silent-leave detection or automatic rejoin); use Node for dynamic
// networks. Its methods are Node's, minus the membership and log-position
// ones, and its Metrics carry the same fastraft.* counters, every leader
// commit counted under fastraft.commits_classic. Propose copies the
// caller's buffer; committed entries share the log's Data, read-only.
type RaftNode struct{ *site }

// NewRaftNode builds and starts a classic Raft node. Options apply as for
// NewNode, except that DisableFastTrack is forced on and
// MemberTimeoutRounds is ignored (silent-leave detection is off).
func NewRaftNode(opts Options) (*RaftNode, error) {
	s, err := newSite(opts, true)
	if err != nil {
		return nil, err
	}
	return &RaftNode{s}, nil
}
