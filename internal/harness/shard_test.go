package harness

import (
	"fmt"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/shard"
	"github.com/hraft-io/hraft/internal/types"
)

func threeProcs() []types.NodeID { return []types.NodeID{"p1", "p2", "p3"} }

func fourShardGroups() []shard.GroupSpec {
	return []shard.GroupSpec{
		{ID: "g-a", Start: ""},
		{ID: "g-g", Start: "g"},
		{ID: "g-n", Start: "n"},
		{ID: "g-t", Start: "t"},
	}
}

func newShardCluster(t *testing.T, opts ShardOptions) *ShardCluster {
	t.Helper()
	if opts.Procs == nil {
		opts.Procs = threeProcs()
	}
	if opts.Groups == nil {
		opts.Groups = fourShardGroups()
	}
	c, err := NewShardCluster(opts)
	if err != nil {
		t.Fatalf("NewShardCluster: %v", err)
	}
	return c
}

// proposeAndAwait routes a keyed payload from proc and waits for its
// resolution, failing the test on loss or timeout.
func proposeAndAwait(t *testing.T, c *ShardCluster, proc types.NodeID, key, payload string) types.GroupID {
	t.Helper()
	gid, pid, err := c.ProposeKey(proc, key, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	if idx, ok := c.AwaitResolution(proc, pid, c.Sched.Now()+10*time.Second); !ok || idx == 0 {
		t.Fatalf("proposal %q (key %q, group %s) did not resolve: ok=%v idx=%d",
			payload, key, gid, ok, idx)
	}
	return gid
}

// assertExactlyOnce checks every process applied the payload exactly once,
// in exactly the expected group and nowhere else.
func assertExactlyOnce(t *testing.T, c *ShardCluster, want types.GroupID, payload string) {
	t.Helper()
	for _, h := range c.Hosts() {
		if !h.Alive() {
			continue
		}
		for _, gid := range h.Manager().Groups() {
			n := h.AppliedCount(gid, payload)
			switch {
			case gid == want && n != 1:
				t.Fatalf("process %s applied %q %d times in group %s, want exactly once",
					h.ID(), payload, n, gid)
			case gid != want && n != 0:
				t.Fatalf("process %s applied %q in group %s; it belongs to %s",
					h.ID(), payload, gid, want)
			}
		}
	}
}

// TestShardClusterCommitsAcrossGroups drives keyed proposals through every
// range of a 4-group cluster and checks each lands exactly once in its own
// group on every process — group traffic shares endpoints and fsync windows
// but no state.
func TestShardClusterCommitsAcrossGroups(t *testing.T) {
	c := newShardCluster(t, ShardOptions{Seed: 7})
	if !c.WaitForAllLeaders(10 * time.Second) {
		t.Fatal("not every group elected a leader")
	}
	keys := map[string]types.GroupID{
		"alpha": "g-a", "golf": "g-g", "november": "g-n", "tango": "g-t",
		"beta": "g-a", "house": "g-g", "oscar": "g-n", "zulu": "g-t",
	}
	for key, want := range keys {
		payload := "v:" + key
		gid := proposeAndAwait(t, c, "p1", key, payload)
		if gid != want {
			t.Fatalf("key %q routed to %s, want %s", key, gid, want)
		}
	}
	c.RunFor(500 * time.Millisecond) // let followers apply
	for key, want := range keys {
		assertExactlyOnce(t, c, want, "v:"+key)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
	// The coalescer must have folded multi-group heartbeats into batches.
	m := c.Host("p1").Manager().Metrics()
	if m["shard.coalesced_frames"] == 0 || m["shard.batches_sent"] == 0 {
		t.Fatalf("no cross-group coalescing happened: %+v", m)
	}
	// The per-group auditor rings make the cluster a trace source.
	if len(c.MergedTrace()) == 0 {
		t.Fatal("shard cluster merged trace is empty")
	}
}

// TestShardClusterSplitUnderTraffic splits a hot range while proposals keep
// flowing into it and checks: the daughter appears on every process with
// identical routing, every proposal from before, during and after the split
// resolved and applied exactly once on every process, and the strict
// auditor saw no violation in either daughter timeline.
func TestShardClusterSplitUnderTraffic(t *testing.T) {
	c := newShardCluster(t, ShardOptions{Seed: 21})
	if !c.WaitForAllLeaders(10 * time.Second) {
		t.Fatal("not every group elected a leader")
	}

	// Warm traffic into the range about to split.
	applied := make(map[string]types.GroupID)
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("g-key-%02d", i)
		applied["v:"+key] = proposeAndAwait(t, c, "p1", key, "v:"+key)
	}

	// Split "g-k..." out of g-g while proposals are in flight: half the
	// burst is proposed before the split entry commits, half after.
	type inflight struct {
		proc    types.NodeID
		pid     types.ProposalID
		payload string
	}
	var burst []inflight
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("g-pre-%02d", i)
		_, pid, err := c.ProposeKey("p1", key, []byte("v:"+key))
		if err != nil {
			t.Fatal(err)
		}
		burst = append(burst, inflight{"p1", pid, "v:" + key})
	}
	if _, _, err := c.Split("g-k", "g-k"); err != nil {
		t.Fatalf("Split: %v", err)
	}
	daughterEverywhere := func() bool {
		for _, h := range c.Hosts() {
			if h.Manager().Group("g-k") == nil {
				return false
			}
		}
		return true
	}
	if !c.RunUntil(daughterEverywhere, c.Sched.Now()+10*time.Second) {
		t.Fatal("split did not reach every process")
	}
	if _, ok := c.WaitForGroupLeader("g-k", c.Sched.Now()+10*time.Second); !ok {
		t.Fatal("daughter group elected no leader")
	}
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("g-post-%02d", i)
		want := types.GroupID("g-g")
		if key >= "g-k" {
			want = "g-k"
		}
		gid := proposeAndAwait(t, c, "p2", key, "v:"+key)
		if gid != want {
			t.Fatalf("post-split key %q routed to %s, want %s", key, gid, want)
		}
		applied["v:"+key] = gid
	}
	for _, f := range burst {
		if idx, ok := c.AwaitResolution(f.proc, f.pid, c.Sched.Now()+10*time.Second); !ok || idx == 0 {
			t.Fatalf("in-flight proposal %q lost across the split", f.payload)
		}
		applied[f.payload] = "g-g" // proposed before the split: committed in the parent
	}
	c.RunFor(500 * time.Millisecond)

	// Routing must agree byte-for-byte on every process.
	want := fmt.Sprintf("%v", c.Host("p1").Manager().Ranges())
	for _, h := range c.Hosts() {
		if got := fmt.Sprintf("%v", h.Manager().Ranges()); got != want {
			t.Fatalf("routing diverged: %s has %s, p1 has %s", h.ID(), got, want)
		}
	}
	for payload, gid := range applied {
		assertExactlyOnce(t, c, gid, payload)
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestShardClusterMergeRetiresGroup folds the hottest range's right
// neighbor away and checks the range table collapses identically on every
// process, keys re-route to the absorbing group, and the retired core is
// garbage-collected once quiet. The drain window is shorter than a heartbeat
// (100 ms): the retiring group's leader commits the merge when the ack
// arrives and must still live to dispatch that commit to its followers.
func TestShardClusterMergeRetiresGroup(t *testing.T) {
	c := newShardCluster(t, ShardOptions{Seed: 33, RetireDrain: 50 * time.Millisecond})
	if !c.WaitForAllLeaders(10 * time.Second) {
		t.Fatal("not every group elected a leader")
	}
	proposeAndAwait(t, c, "p1", "november-1", "v:n1")

	if _, _, err := c.Merge("g-n"); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	merged := func() bool {
		for _, h := range c.Hosts() {
			for _, r := range h.Manager().Ranges() {
				if r.Group == "g-n" {
					return false
				}
			}
		}
		return true
	}
	if !c.RunUntil(merged, c.Sched.Now()+10*time.Second) {
		t.Fatal("merge did not reach every process")
	}
	// Keys from the folded range now land in the left neighbor.
	if gid := proposeAndAwait(t, c, "p2", "november-2", "v:n2"); gid != "g-g" {
		t.Fatalf("post-merge key routed to %s, want g-g", gid)
	}
	// The retired core drains and is collected.
	collected := func() bool {
		for _, h := range c.Hosts() {
			if h.Manager().Group("g-n") != nil {
				return false
			}
		}
		return true
	}
	if !c.RunUntil(collected, c.Sched.Now()+10*time.Second) {
		t.Fatal("retired group was never garbage-collected")
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestShardClusterTransferLeader moves one group's leadership to a chosen
// process and checks the other groups' leaders are untouched.
func TestShardClusterTransferLeader(t *testing.T) {
	c := newShardCluster(t, ShardOptions{Seed: 44})
	if !c.WaitForAllLeaders(10 * time.Second) {
		t.Fatal("not every group elected a leader")
	}
	old, _ := c.GroupLeader("g-g")
	var target types.NodeID
	for _, id := range threeProcs() {
		if id != old.ID() {
			target = id
			break
		}
	}
	othersBefore := make(map[types.GroupID]types.NodeID)
	for _, gid := range []types.GroupID{"g-a", "g-n", "g-t"} {
		h, _ := c.GroupLeader(gid)
		othersBefore[gid] = h.ID()
	}
	if err := c.TransferLeader("g-g", target); err != nil {
		t.Fatal(err)
	}
	moved := func() bool {
		h, ok := c.GroupLeader("g-g")
		return ok && h.ID() == target
	}
	if !c.RunUntil(moved, c.Sched.Now()+10*time.Second) {
		t.Fatalf("leadership of g-g never moved to %s", target)
	}
	for gid, before := range othersBefore {
		h, ok := c.GroupLeader(gid)
		if !ok || h.ID() != before {
			t.Fatalf("transfer of g-g disturbed group %s's leader", gid)
		}
	}
	// Work still commits in the moved group.
	proposeAndAwait(t, c, target, "golf-after", "v:golf-after")
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestShardClusterCrashRestart crashes one process (losing every group's
// unsynced window at once), keeps committing on the survivors, restarts it
// and checks it recovers every group — including routing learned from its
// meta journal — without contradicting anything it acknowledged.
func TestShardClusterCrashRestart(t *testing.T) {
	c := newShardCluster(t, ShardOptions{Seed: 55, RetireDrain: 50 * time.Millisecond})
	if !c.WaitForAllLeaders(10 * time.Second) {
		t.Fatal("not every group elected a leader")
	}
	proposeAndAwait(t, c, "p1", "alpha-1", "v:a1")

	// A split before the crash: p3 must recover the daughter from its meta
	// journal at restart.
	if _, _, err := c.Split("u-split", "u"); err != nil {
		t.Fatal(err)
	}
	everywhere := func() bool {
		for _, h := range c.Hosts() {
			if h.Alive() && h.Manager().Group("u-split") == nil {
				return false
			}
		}
		return true
	}
	if !c.RunUntil(everywhere, c.Sched.Now()+10*time.Second) {
		t.Fatal("split did not reach every process")
	}
	c.RunFor(100 * time.Millisecond) // let the meta journal's fsync window close

	c.Crash("p3")
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("down-%d", i)
		proposeAndAwait(t, c, "p1", key, "v:"+key)
	}
	if err := c.Restart("p3"); err != nil {
		t.Fatal(err)
	}
	p3 := c.Host("p3")
	if p3.Manager().Group("u-split") == nil {
		t.Fatal("restarted process lost the split group from its meta journal")
	}
	// p3 catches up in every group, including the daughter.
	caughtUp := func() bool {
		for _, gid := range []types.GroupID{"g-a", "g-g", "g-n", "g-t", "u-split"} {
			lead, ok := c.GroupLeader(gid)
			if !ok {
				return false
			}
			mine, theirs := p3.Manager().Group(gid), lead.Manager().Group(gid)
			if mine == nil || mine.CommitIndex() < theirs.CommitIndex() {
				return false
			}
		}
		return true
	}
	if !c.RunUntil(caughtUp, c.Sched.Now()+20*time.Second) {
		t.Fatal("restarted process never caught up across its groups")
	}
	if err := c.Safety.Err(); err != nil {
		t.Fatal(err)
	}
}
