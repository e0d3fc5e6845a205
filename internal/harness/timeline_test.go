package harness

import (
	"strings"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

func TestTimelineDeduplicatesLeaderObservations(t *testing.T) {
	tl := NewTimeline()
	tl.ObserveLeader(time.Second, "", 1, "n1")
	tl.ObserveLeader(2*time.Second, "", 1, "n1") // repeat: ignored
	tl.ObserveLeader(3*time.Second, "", 2, "n2") // new term: recorded
	tl.ObserveLeader(4*time.Second, "global", 1, "c1")
	if tl.LeaderChanges("") != 2 {
		t.Fatalf("leader changes = %d, want 2", tl.LeaderChanges(""))
	}
	if tl.LeaderChanges("global") != 1 {
		t.Fatalf("global leader changes = %d", tl.LeaderChanges("global"))
	}
}

func TestTimelineEventsSorted(t *testing.T) {
	tl := NewTimeline()
	tl.Note(5*time.Second, "late")
	tl.Crash(time.Second, "n3")
	tl.Restart(3*time.Second, "n3")
	evts := tl.Events()
	if len(evts) != 3 {
		t.Fatalf("events = %d", len(evts))
	}
	for i := 1; i < len(evts); i++ {
		if evts[i].At < evts[i-1].At {
			t.Fatalf("unsorted events: %v", evts)
		}
	}
	var sb strings.Builder
	tl.Print(&sb)
	out := sb.String()
	for _, want := range []string{"crash", "restart", "late"} {
		if !strings.Contains(out, want) {
			t.Fatalf("printed timeline missing %q:\n%s", want, out)
		}
	}
}

func TestTimelineRecordsRealRun(t *testing.T) {
	c := newTestCluster(t, KindFastRaft, 31, 0)
	leader, ok := c.WaitForLeader(10 * time.Second)
	if !ok {
		t.Fatal("no leader")
	}
	if c.Timeline.LeaderChanges("") == 0 {
		t.Fatal("election not recorded")
	}
	c.Crash(leader)
	if _, ok := c.WaitForLeader(c.Sched.Now() + 10*time.Second); !ok {
		t.Fatal("no failover")
	}
	if c.Timeline.LeaderChanges("") < 2 {
		t.Fatalf("failover not recorded: %d changes", c.Timeline.LeaderChanges(""))
	}
	found := false
	for _, e := range c.Timeline.Events() {
		if e.Kind == EventCrash && e.Node == leader {
			found = true
		}
	}
	if !found {
		t.Fatal("crash event missing")
	}
	_ = types.NodeID(leader)
}

// TestCraftTimelineRecordsChurn crashes and restarts a C-Raft site: the
// deployment's Timeline carries both markers, as a flat cluster's does.
func TestCraftTimelineRecordsChurn(t *testing.T) {
	c := newCraft(t, twoClusterSpecs(), 3, 0)
	if !c.WaitForLeaders(30 * time.Second) {
		t.Fatal("no leaders")
	}
	c.Crash("b2")
	c.RunFor(time.Second)
	if err := c.Restart("b2"); err != nil {
		t.Fatal(err)
	}
	var crashed, restarted bool
	for _, e := range c.Timeline.Events() {
		crashed = crashed || (e.Kind == EventCrash && e.Node == "b2")
		restarted = restarted || (e.Kind == EventRestart && e.Node == "b2")
	}
	if !crashed || !restarted {
		t.Fatalf("timeline crash=%v restart=%v for b2, want both", crashed, restarted)
	}
}

func TestTimelineRecordsConfigChanges(t *testing.T) {
	c, err := NewCluster(Options{
		Kind: KindFastRaft, Nodes: fiveNodes(), Seed: 37, MemberTimeoutRounds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.WaitForLeader(10 * time.Second); !ok {
		t.Fatal("no leader")
	}
	if _, err := c.StartProposer(ProposerOptions{Node: "n1", StopAfter: c.Sched.Now() + time.Minute, ThinkTime: PacedThink}); err != nil {
		t.Fatal(err)
	}
	victim := types.NodeID("n5")
	if h, _ := c.Leader(); h != nil && h.ID() == victim {
		victim = "n4"
	}
	c.Crash(victim)
	removed := c.RunUntil(func() bool {
		h, ok := c.Leader()
		return ok && !h.Machine().Config().Contains(victim)
	}, c.Sched.Now()+30*time.Second)
	if !removed {
		t.Fatal("removal never happened")
	}
	// The configuration takes effect at append time; give the classic
	// track a moment to commit it (which is when the timeline records it).
	c.RunFor(2 * time.Second)
	hasConfig := false
	for _, e := range c.Timeline.Events() {
		if e.Kind == EventConfigChange {
			hasConfig = true
		}
	}
	if !hasConfig {
		t.Fatal("config change not recorded in the timeline")
	}
}
