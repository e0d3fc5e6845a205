package hraft_test

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	hraft "github.com/hraft-io/hraft"
)

// fastOptions returns aggressive timers so real-time tests finish quickly.
func fastOptions(id hraft.NodeID, peers []hraft.NodeID, tr hraft.Transport, seed int64) hraft.Options {
	return hraft.Options{
		ID:                 id,
		Peers:              peers,
		Transport:          tr,
		HeartbeatInterval:  10 * time.Millisecond,
		ElectionTimeoutMin: 40 * time.Millisecond,
		ElectionTimeoutMax: 80 * time.Millisecond,
		ProposalTimeout:    100 * time.Millisecond,
		Seed:               seed,
	}
}

func startCluster(t *testing.T, n int, seed int64) (*hraft.InProcNetwork, []*hraft.Node, []hraft.NodeID) {
	t.Helper()
	net := hraft.NewInProcNetwork(seed)
	peers := make([]hraft.NodeID, n)
	for i := range peers {
		peers[i] = hraft.NodeID(fmt.Sprintf("n%d", i+1))
	}
	nodes := make([]*hraft.Node, n)
	for i, id := range peers {
		node, err := hraft.NewNode(fastOptions(id, peers, net.Endpoint(id), seed+int64(i)))
		if err != nil {
			t.Fatalf("NewNode(%s): %v", id, err)
		}
		nodes[i] = node
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
		net.Close()
	})
	return net, nodes, peers
}

func TestPublicAPIProposeCommit(t *testing.T) {
	_, nodes, _ := startCluster(t, 5, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	idx, err := nodes[1].Propose(ctx, []byte("hello"))
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if idx == 0 {
		t.Fatal("committed at index 0")
	}
	// The entry must surface on every node's commit stream.
	for i, n := range nodes {
		deadline := time.After(5 * time.Second)
		for {
			var e hraft.Entry
			select {
			case e = <-n.Commits():
			case <-deadline:
				t.Fatalf("node %d never saw the committed entry", i)
			}
			if e.Kind == hraft.EntryNormal && string(e.Data) == "hello" {
				break
			}
		}
	}
}

func TestPublicAPILinearizableAndLeaseReads(t *testing.T) {
	_, nodes, _ := startCluster(t, 5, 9)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	wIdx, err := nodes[0].Propose(ctx, []byte("w"))
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	// A linearizable read from any node returns an index covering the
	// completed write, without writing a log entry.
	for i, n := range nodes[:3] {
		rIdx, err := n.Read(ctx)
		if err != nil {
			t.Fatalf("node %d Read: %v", i, err)
		}
		if rIdx < wIdx {
			t.Fatalf("node %d read index %d below committed write %d", i, rIdx, wIdx)
		}
	}
	// Lease and stale modes resolve too (lease falls back to ReadIndex
	// until the lease is warm, so no timing assumptions here).
	if _, err := nodes[1].ReadWith(ctx, hraft.ReadLeaseBased); err != nil {
		t.Fatalf("lease read: %v", err)
	}
	if _, err := nodes[2].ReadWith(ctx, hraft.ReadStale); err != nil {
		t.Fatalf("stale read: %v", err)
	}
	// The leader exposes per-peer replication progress.
	var leaderStatus []hraft.PeerStatus
	for _, n := range nodes {
		if s := n.PeerStatus(); len(s) > 0 {
			leaderStatus = s
			break
		}
	}
	if len(leaderStatus) == 0 {
		t.Fatal("no node exposes peer status")
	}
}

func TestPublicAPIFollowerLocalReads(t *testing.T) {
	_, nodes, _ := startCluster(t, 5, 11)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	wIdx, err := nodes[0].Propose(ctx, []byte("flw"))
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	// Find a follower: a follower-local read confirms an index with the
	// leader, waits for the follower's own commit index to cover it, and
	// resolves — the caller then serves from follower-local state.
	var follower *hraft.Node
	for _, n := range nodes {
		if n.Role() != hraft.Leader && n.Leader() != "" {
			follower = n
			break
		}
	}
	if follower == nil {
		t.Fatal("no settled follower found")
	}
	rIdx, err := follower.ReadWith(ctx, hraft.ReadFollowerLocal)
	if err != nil {
		t.Fatalf("follower-local read: %v", err)
	}
	if rIdx < wIdx {
		t.Fatalf("read index %d below committed write %d", rIdx, wIdx)
	}
	if follower.CommitIndex() < rIdx {
		t.Fatalf("resolved at %d beyond local commit %d: not locally servable",
			rIdx, follower.CommitIndex())
	}
	if follower.Metrics()["readpath.reads_follower_local"] == 0 {
		t.Fatal("reads_follower_local counter did not move")
	}
	// On the leader the mode degenerates to a plain linearizable read.
	for _, n := range nodes {
		if n.Role() == hraft.Leader {
			if _, err := n.ReadWith(ctx, hraft.ReadFollowerLocal); err != nil {
				t.Fatalf("leader-side follower-local read: %v", err)
			}
			break
		}
	}
}

func TestPublicAPISessionExactlyOnce(t *testing.T) {
	_, nodes, _ := startCluster(t, 3, 9)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	// Drain commit streams and count applies of the payload on node 1.
	applies := make(chan struct{}, 16)
	for i, n := range nodes {
		i, n := i, n
		go func() {
			for e := range n.Commits() {
				if i == 1 && e.Kind == hraft.EntryNormal && string(e.Data) == "pay-once" {
					applies <- struct{}{}
				}
			}
		}()
	}

	sess, err := nodes[0].OpenSession(ctx)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	idx, err := sess.Propose(ctx, []byte("pay-once"))
	if err != nil {
		t.Fatalf("Session.Propose: %v", err)
	}
	if idx == 0 {
		t.Fatal("committed at index 0")
	}
	// Retry the same sequence (the lost-ack path): cached index, no
	// second apply.
	again, err := sess.ProposeAt(ctx, sess.LastSeq(), []byte("pay-once"))
	if err != nil {
		t.Fatalf("ProposeAt retry: %v", err)
	}
	if again != idx {
		t.Fatalf("retry resolved to %d, want %d", again, idx)
	}
	// Reattaching (a client restart) preserves the identity.
	re := nodes[0].AttachSession(sess.ID(), sess.LastSeq())
	again, err = re.ProposeAt(ctx, 1, []byte("pay-once"))
	if err != nil {
		t.Fatalf("ProposeAt after reattach: %v", err)
	}
	if again != idx {
		t.Fatalf("reattached retry resolved to %d, want %d", again, idx)
	}

	<-applies
	select {
	case <-applies:
		t.Fatal("payload applied more than once")
	case <-time.After(500 * time.Millisecond):
	}
}

func TestPublicAPIPipelinedProposals(t *testing.T) {
	_, nodes, _ := startCluster(t, 3, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		if _, err := nodes[0].Propose(ctx, []byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
	}
	// Propose returns when the leader's commit notification arrives, and the
	// proposing follower commits on it when it has committed everything
	// before; a notification that arrives ahead of that prefix (right after
	// an election, say) leaves the commit index to the next AppendEntries, a
	// heartbeat later at most.
	deadline := time.Now().Add(5 * time.Second)
	for nodes[0].CommitIndex() < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("commit index %d after 10 proposals", nodes[0].CommitIndex())
		}
		time.Sleep(5 * time.Millisecond)
	}
	go func() {
		for range nodes[0].Commits() {
		}
	}()
}

func TestPublicAPILeaderFailover(t *testing.T) {
	_, nodes, peers := startCluster(t, 5, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := nodes[2].Propose(ctx, []byte("before")); err != nil {
		t.Fatalf("pre-failover propose: %v", err)
	}
	// Find and stop the leader.
	var leader hraft.NodeID
	for waited := 0; waited < 100; waited++ {
		leader = nodes[2].Leader()
		if leader != "" {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if leader == "" {
		t.Fatal("no leader discovered")
	}
	var survivor *hraft.Node
	for i, id := range peers {
		if id == leader {
			nodes[i].Stop()
		} else if survivor == nil || id == nodes[2].ID() {
			survivor = nodes[i]
		}
	}
	if _, err := survivor.Propose(ctx, []byte("after")); err != nil {
		t.Fatalf("post-failover propose: %v", err)
	}
	// Drain commit channels so Stop in cleanup doesn't block dispatchers.
	for _, n := range nodes {
		go func(n *hraft.Node) {
			for range n.Commits() {
			}
		}(n)
	}
}

func TestPublicAPIMembershipJoin(t *testing.T) {
	net, nodes, peers := startCluster(t, 3, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := nodes[0].Propose(ctx, []byte("warmup")); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	joiner, err := hraft.NewNode(fastOptions("n4", nil, net.Endpoint("n4"), 99))
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Stop()
	joiner.Join(peers)
	deadline := time.After(10 * time.Second)
	for {
		if joiner.Members().Contains("n4") && nodes[0].Members().Contains("n4") {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("join never completed: joiner=%v n1=%v",
				joiner.Members(), nodes[0].Members())
		case <-time.After(20 * time.Millisecond):
		}
	}
	for _, n := range append(nodes, joiner) {
		go func(n *hraft.Node) {
			for range n.Commits() {
			}
		}(n)
	}
	if _, err := joiner.Propose(ctx, []byte("from joiner")); err != nil {
		t.Fatalf("joiner propose: %v", err)
	}
}

func TestPublicAPICRaftGlobalCommit(t *testing.T) {
	net := hraft.NewInProcNetwork(7)
	specs := map[hraft.NodeID][]hraft.NodeID{
		"cA": {"a1", "a2", "a3"},
		"cB": {"b1", "b2", "b3"},
	}
	clusters := []hraft.NodeID{"cA", "cB"}
	var all []*hraft.CRaftNode
	byID := make(map[hraft.NodeID]*hraft.CRaftNode)
	for _, cid := range clusters {
		for i, sid := range specs[cid] {
			node, err := hraft.NewCRaftNode(hraft.CRaftOptions{
				ID:              sid,
				Cluster:         cid,
				ClusterPeers:    specs[cid],
				GlobalClusters:  clusters,
				Transport:       net.Endpoint(sid),
				BatchSize:       5,
				LocalHeartbeat:  10 * time.Millisecond,
				GlobalHeartbeat: 40 * time.Millisecond,
				Seed:            int64(100 + i),
			})
			if err != nil {
				t.Fatalf("NewCRaftNode(%s): %v", sid, err)
			}
			all = append(all, node)
			byID[sid] = node
		}
	}
	defer func() {
		for _, n := range all {
			n.Stop()
		}
		net.Close()
	}()
	for _, n := range all {
		go func(n *hraft.CRaftNode) {
			for range n.Commits() {
			}
		}(n)
		go func(n *hraft.CRaftNode) {
			for range n.GlobalCommits() {
			}
		}(n)
	}
	// Keep the cluster endpoints pointed at the current local leaders.
	stopRouting := make(chan struct{})
	defer close(stopRouting)
	go func() {
		for {
			select {
			case <-stopRouting:
				return
			case <-time.After(20 * time.Millisecond):
			}
			for _, cid := range clusters {
				for _, sid := range specs[cid] {
					if byID[sid].IsClusterLeader() {
						hraft.RegisterClusterEndpoint(net, cid, byID[sid])
						break
					}
				}
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Propose 12 entries in cluster A: at batch size 5 at least two batches
	// must commit globally and be visible in cluster B.
	for i := 0; i < 12; i++ {
		if _, err := byID["a1"].Propose(ctx, []byte(fmt.Sprintf("a-%d", i))); err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
	}
	deadline := time.After(20 * time.Second)
	for {
		if byID["b1"].GlobalCommitIndex() >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("cluster B never learned global commits (b1 gCommit=%d)",
				byID["b1"].GlobalCommitIndex())
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func TestPublicAPIRaftBaseline(t *testing.T) {
	net := hraft.NewInProcNetwork(9)
	defer net.Close()
	peers := []hraft.NodeID{"r1", "r2", "r3"}
	var nodes []*hraft.RaftNode
	for i, id := range peers {
		n, err := hraft.NewRaftNode(hraft.Options{
			ID:                 id,
			Peers:              peers,
			Transport:          net.Endpoint(id),
			HeartbeatInterval:  10 * time.Millisecond,
			ElectionTimeoutMin: 40 * time.Millisecond,
			ElectionTimeoutMax: 80 * time.Millisecond,
			Seed:               int64(i + 1),
		})
		if err != nil {
			t.Fatalf("NewRaftNode(%s): %v", id, err)
		}
		defer n.Stop()
		nodes = append(nodes, n)
		go func(n *hraft.RaftNode) {
			for range n.Commits() {
			}
		}(n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if _, err := nodes[1].Propose(ctx, []byte(fmt.Sprintf("r-%d", i))); err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
	}
	if nodes[1].CommitIndex() < 5 {
		t.Fatalf("commit index = %d", nodes[1].CommitIndex())
	}
	if nodes[1].Leader() == "" {
		t.Fatal("no leader known")
	}
	// RaftNode runs Node's core with the fast track off: its metrics carry
	// the same fastraft.* counters, every leader commit a classic one.
	for _, n := range nodes {
		if n.Role() != hraft.Leader {
			continue
		}
		if m := n.Metrics(); m["fastraft.commits_fast"] != 0 || m["fastraft.commits_classic"] < 5 {
			t.Fatalf("leader commits: fast %d, classic %d", m["fastraft.commits_fast"], m["fastraft.commits_classic"])
		}
	}
}

// nodeSurface is the exported method set of each public node type, as
// methodSet prints it. The four types share their implementation through
// embedded types, so a change there can add or drop a method silently;
// this list makes it show.
const nodeSurface = `
Node.AttachSession(types.SessionID, uint64) *hraft.Session
Node.AuditReport() audit.Report
Node.CommitIndex() types.Index
Node.Commits() <-chan types.Entry
Node.DebugStatus(int) hraft.DebugStatus
Node.DebugTop() hraft.DebugTop
Node.FirstIndex() types.Index
Node.ID() types.NodeID
Node.Join([]types.NodeID)
Node.Leader() types.NodeID
Node.Leave()
Node.Members() types.Config
Node.Metrics() map[string]uint64
Node.OpenSession(context.Context) (*hraft.Session, error)
Node.PeerStatus() []replica.PeerStatus
Node.Propose(context.Context, []uint8) (types.Index, error)
Node.ProposeAsync([]uint8) types.ProposalID
Node.Read(context.Context) (types.Index, error)
Node.ReadWith(context.Context, types.ReadConsistency) (types.Index, error)
Node.Recorder() *trace.Recorder
Node.Role() types.Role
Node.SnapshotIndex() types.Index
Node.Stop()
Node.Term() types.Term

RaftNode.AttachSession(types.SessionID, uint64) *hraft.Session
RaftNode.AuditReport() audit.Report
RaftNode.CommitIndex() types.Index
RaftNode.Commits() <-chan types.Entry
RaftNode.DebugStatus(int) hraft.DebugStatus
RaftNode.DebugTop() hraft.DebugTop
RaftNode.ID() types.NodeID
RaftNode.Leader() types.NodeID
RaftNode.Metrics() map[string]uint64
RaftNode.OpenSession(context.Context) (*hraft.Session, error)
RaftNode.PeerStatus() []replica.PeerStatus
RaftNode.Propose(context.Context, []uint8) (types.Index, error)
RaftNode.ProposeAsync([]uint8) types.ProposalID
RaftNode.Read(context.Context) (types.Index, error)
RaftNode.ReadWith(context.Context, types.ReadConsistency) (types.Index, error)
RaftNode.Recorder() *trace.Recorder
RaftNode.Role() types.Role
RaftNode.Stop()
RaftNode.Term() types.Term

CRaftNode.AttachSession(types.SessionID, uint64) *hraft.Session
CRaftNode.AuditReport() audit.Report
CRaftNode.ClusterID() types.NodeID
CRaftNode.Commits() <-chan types.Entry
CRaftNode.DebugStatus(int) hraft.DebugStatus
CRaftNode.DebugString() string
CRaftNode.DebugTop() hraft.DebugTop
CRaftNode.GlobalCommitIndex() types.Index
CRaftNode.GlobalCommits() <-chan types.Entry
CRaftNode.GlobalPeerStatus() []replica.PeerStatus
CRaftNode.ID() types.NodeID
CRaftNode.IsClusterLeader() bool
CRaftNode.JoinGlobal([]types.NodeID)
CRaftNode.Metrics() map[string]uint64
CRaftNode.OpenSession(context.Context) (*hraft.Session, error)
CRaftNode.PeerStatus() []replica.PeerStatus
CRaftNode.Propose(context.Context, []uint8) (types.Index, error)
CRaftNode.ProposeAsync([]uint8) types.ProposalID
CRaftNode.Read(context.Context) (types.Index, error)
CRaftNode.ReadGlobal(context.Context) (types.Index, error)
CRaftNode.ReadWith(context.Context, types.ReadConsistency) (types.Index, error)
CRaftNode.Recorder() *trace.Recorder
CRaftNode.Role() types.Role
CRaftNode.Stop()

ShardNode.AuditReport() audit.Report
ShardNode.Commits() <-chan shard.Commit
ShardNode.DebugStatus(int) hraft.DebugStatus
ShardNode.DebugTop() hraft.DebugTop
ShardNode.Groups() []types.GroupID
ShardNode.ID() types.NodeID
ShardNode.Merge(context.Context, types.GroupID) (types.Index, error)
ShardNode.Metrics() map[string]uint64
ShardNode.Propose(context.Context, string, []uint8) (types.Index, error)
ShardNode.ProposeAsync(string, []uint8) (types.GroupID, types.ProposalID)
ShardNode.Ranges() []hraft.ShardRange
ShardNode.Read(context.Context, string) (types.Index, error)
ShardNode.ReadWith(context.Context, string, types.ReadConsistency) (types.Index, error)
ShardNode.Route(string) types.GroupID
ShardNode.ShardStatus() []hraft.GroupStatus
ShardNode.Split(context.Context, types.GroupID, string) (types.Index, error)
ShardNode.Stop()
ShardNode.TransferLeader(types.GroupID, types.NodeID) bool
`

// methodSet lists the exported methods of the node type v points to, one
// signature a line in reflect's (sorted) order, e.g.
// "Node.Propose(context.Context, []uint8) (types.Index, error)".
func methodSet(v any) string {
	t := reflect.TypeOf(v)
	var b strings.Builder
	for i := 0; i < t.NumMethod(); i++ {
		m := t.Method(i)
		var in, out []string
		for j := 1; j < m.Type.NumIn(); j++ { // In(0) is the receiver
			in = append(in, m.Type.In(j).String())
		}
		for j := 0; j < m.Type.NumOut(); j++ {
			out = append(out, m.Type.Out(j).String())
		}
		b.WriteString(t.Elem().Name() + "." + m.Name + "(" + strings.Join(in, ", ") + ")")
		switch len(out) {
		case 0:
		case 1:
			b.WriteString(" " + out[0])
		default:
			b.WriteString(" (" + strings.Join(out, ", ") + ")")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestNodeTypesMethodSetsAreGolden pins the public surface of Node,
// RaftNode, CRaftNode and ShardNode, names and signatures: RaftNode's
// methods are a subset of Node's, and no node type gains or loses a
// method through what the types embed.
func TestNodeTypesMethodSetsAreGolden(t *testing.T) {
	var got []string
	for _, v := range []any{&hraft.Node{}, &hraft.RaftNode{}, &hraft.CRaftNode{}, &hraft.ShardNode{}} {
		got = append(got, methodSet(v))
	}
	if g, want := "\n"+strings.Join(got, "\n"), nodeSurface; g != want {
		t.Fatalf("node method sets changed:\n got:%s\nwant:%s", g, want)
	}
}

// logStore is a minimal Snapshotter: it folds committed entries into a map
// and serializes it with the last applied index.
type logStore struct {
	mu      sync.Mutex
	vals    map[string]string
	applied hraft.Index
	// restored counts Restore calls so tests can assert restore-on-open.
	restored int
}

func newLogStore() *logStore { return &logStore{vals: make(map[string]string)} }

func (s *logStore) apply(e hraft.Entry) {
	if e.Kind != hraft.EntryNormal {
		return
	}
	k, v, ok := strings.Cut(string(e.Data), "=")
	if !ok {
		return
	}
	s.mu.Lock()
	if e.Index > s.applied {
		s.vals[k] = v
		s.applied = e.Index
	}
	s.mu.Unlock()
}

func (s *logStore) Snapshot() ([]byte, hraft.Index, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sb strings.Builder
	keys := make([]string, 0, len(s.vals))
	for k := range s.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%s\n", k, s.vals[k])
	}
	return []byte(sb.String()), s.applied, nil
}

func (s *logStore) Restore(snap hraft.Snapshot) error {
	vals := make(map[string]string)
	for _, line := range strings.Split(string(snap.Data), "\n") {
		if k, v, ok := strings.Cut(line, "="); ok {
			vals[k] = v
		}
	}
	s.mu.Lock()
	s.vals = vals
	s.applied = snap.Meta.LastIndex
	s.restored++
	s.mu.Unlock()
	return nil
}

func (s *logStore) get(k string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vals[k]
}

// TestPublicAPISnapshotCompactionAndWALRestore drives the full loop on a
// real WAL: compaction while running, reopening the WAL loads only
// snapshot + suffix, and a restarted node restores the state machine from
// the snapshot before replaying the remaining log.
func TestPublicAPISnapshotCompactionAndWALRestore(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "n1.wal")
	net := hraft.NewInProcNetwork(5)
	defer net.Close()

	const threshold = 8
	start := func(store *logStore) *hraft.Node {
		wal, err := hraft.OpenWAL(walPath)
		if err != nil {
			t.Fatalf("OpenWAL: %v", err)
		}
		node, err := hraft.NewNode(hraft.Options{
			ID:                 "n1",
			Peers:              []hraft.NodeID{"n1"},
			Transport:          net.Endpoint("n1"),
			Storage:            wal,
			HeartbeatInterval:  5 * time.Millisecond,
			ElectionTimeoutMin: 20 * time.Millisecond,
			ElectionTimeoutMax: 40 * time.Millisecond,
			SnapshotThreshold:  threshold,
			Snapshotter:        store,
			OnCommit:           store.apply,
			Seed:               1,
		})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		go func() {
			for range node.Commits() {
			}
		}()
		return node
	}

	store := newLogStore()
	node := start(store)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 3*threshold; i++ {
		if _, err := node.Propose(ctx, []byte(fmt.Sprintf("k%02d=v%d", i%6, i))); err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for node.FirstIndex() == 1 {
		if time.Now().After(deadline) {
			t.Fatal("log never compacted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	commitBefore := node.CommitIndex()
	node.Stop()

	// The reopened WAL must hold only the snapshot + suffix.
	wal, err := hraft.OpenWAL(walPath)
	if err != nil {
		t.Fatalf("reopen WAL: %v", err)
	}
	snap, ok, err := wal.LoadSnapshot()
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot after compaction: ok=%v err=%v", ok, err)
	}
	_, entries, err := wal.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Index <= snap.Meta.LastIndex {
			t.Fatalf("WAL still holds compacted entry %d (boundary %d)", e.Index, snap.Meta.LastIndex)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	// A restarted node must restore the state machine from the snapshot.
	store2 := newLogStore()
	node2 := start(store2)
	defer node2.Stop()
	if store2.restored == 0 {
		t.Fatal("restart did not restore from the stored snapshot")
	}
	deadline = time.Now().Add(10 * time.Second)
	for node2.CommitIndex() < commitBefore {
		if time.Now().After(deadline) {
			t.Fatalf("restarted node commit %d < %d", node2.CommitIndex(), commitBefore)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := node2.Propose(ctx, []byte("after=restart")); err != nil {
		t.Fatalf("propose after restart: %v", err)
	}
	waitFor := time.Now().Add(5 * time.Second)
	for store2.get("after") != "restart" {
		if time.Now().After(waitFor) {
			t.Fatal("post-restart write never applied")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The last pre-restart value of every key must have survived through
	// snapshot + replay.
	last := 3*threshold - 1
	wantKey := fmt.Sprintf("k%02d", last%6)
	wantVal := fmt.Sprintf("v%d", last)
	if got := store2.get(wantKey); got != wantVal {
		t.Fatalf("state after restore: %s=%q, want %q", wantKey, got, wantVal)
	}
}
