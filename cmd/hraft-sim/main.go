// Command hraft-sim runs scripted fault scenarios on the deterministic
// simulator and prints an event timeline — a workbench for studying Fast
// Raft's behaviour under churn, partitions and crashes without waiting on
// wall-clock time.
//
// Scenarios:
//
//	leaderloss — commit traffic across repeated leader crashes + restarts
//	churn      — sites join, leave and silently vanish under load
//	partition  — a minority partition forms and heals
//	lossy      — sustained commit traffic at high message loss
//
// Example:
//
//	hraft-sim -scenario churn -seed 7 -duration 60s
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/hraft-io/hraft/internal/harness"
	"github.com/hraft-io/hraft/internal/stats"
	"github.com/hraft-io/hraft/internal/types"
)

func main() {
	var (
		scenario = flag.String("scenario", "leaderloss", "leaderloss, churn, partition or lossy")
		seed     = flag.Int64("seed", 1, "random seed (runs are reproducible per seed)")
		duration = flag.Duration("duration", 60*time.Second, "virtual time to simulate")
		loss     = flag.Float64("loss", 0.02, "message loss probability")
	)
	flag.Parse()
	if err := run(*scenario, *seed, *duration, *loss); err != nil {
		fmt.Fprintln(os.Stderr, "hraft-sim:", err)
		os.Exit(1)
	}
}

func run(scenario string, seed int64, duration time.Duration, loss float64) error {
	nodes := []types.NodeID{"n1", "n2", "n3", "n4", "n5"}
	c, err := harness.NewCluster(harness.Options{
		Kind:     harness.KindFastRaft,
		Nodes:    nodes,
		Seed:     seed,
		LossProb: loss,
	})
	if err != nil {
		return err
	}
	logf := func(format string, args ...any) {
		fmt.Printf("%10s | ", c.Sched.Now().Round(time.Millisecond))
		fmt.Printf(format+"\n", args...)
	}
	if _, ok := c.WaitForLeader(30 * time.Second); !ok {
		return fmt.Errorf("no leader elected")
	}
	leader, _ := c.Leader()
	logf("leader elected: %s (term %d)", leader.ID(), leader.Machine().Term())

	p, err := c.StartProposer(harness.ProposerOptions{
		Node: "n2", StopAfter: c.Sched.Now() + duration, ThinkTime: harness.PacedThink,
	})
	if err != nil {
		return err
	}

	switch scenario {
	case "leaderloss":
		scheduleLeaderCrashes(c, logf, duration)
	case "churn":
		scheduleChurn(c, logf, duration)
	case "partition":
		schedulePartition(c, logf, nodes, duration)
	case "lossy":
		// Nothing extra: the -loss flag does the damage.
	default:
		return fmt.Errorf("unknown scenario %q", scenario)
	}

	end := c.Sched.Now() + duration
	c.RunUntil(func() bool { return false }, end)

	fmt.Println("--- timeline ---")
	c.Timeline.Print(os.Stdout)
	fmt.Println("--- summary ---")
	logf("scenario complete: %d proposals committed", p.Completed)
	logf("latency: %s", stats.Summarize(p.Series.Values()))
	st := c.Net.Stats()
	logf("network: sent=%d delivered=%d dropped=%d cut=%d", st.Sent, st.Delivered, st.Dropped, st.Cut)
	if err := c.Safety.Err(); err != nil {
		return fmt.Errorf("SAFETY VIOLATION: %w", err)
	}
	logf("safety: no conflicting commits, at most one leader per term ✓")
	return nil
}

func scheduleLeaderCrashes(c *harness.Cluster, logf func(string, ...any), d time.Duration) {
	var crashed types.NodeID
	period := d / 4
	for i := 1; i <= 3; i++ {
		at := c.Sched.Now() + time.Duration(i)*period
		c.Sched.At(at, func() {
			if crashed != types.None {
				if err := c.Restart(crashed); err == nil {
					logf("restarted %s", crashed)
				}
				crashed = types.None
			}
			if h, ok := c.Leader(); ok && h.ID() != "n2" {
				crashed = h.ID()
				c.Crash(crashed)
				logf("crashed leader %s", crashed)
			}
		})
	}
}

func scheduleChurn(c *harness.Cluster, logf func(string, ...any), d time.Duration) {
	c.Sched.At(c.Sched.Now()+d/5, func() {
		if _, err := c.AddNode("n6", []types.NodeID{"n1", "n3"}); err == nil {
			logf("n6 requests to join")
		}
	})
	c.Sched.At(c.Sched.Now()+2*d/5, func() {
		if err := c.Leave("n4"); err == nil {
			logf("n4 announces a graceful leave")
		}
	})
	c.Sched.At(c.Sched.Now()+3*d/5, func() {
		c.Crash("n5")
		logf("n5 leaves silently")
	})
	c.Sched.At(c.Sched.Now()+4*d/5, func() {
		if h, ok := c.Leader(); ok {
			logf("membership now %v", h.Machine().Config())
		}
	})
}

func schedulePartition(c *harness.Cluster, logf func(string, ...any), nodes []types.NodeID, d time.Duration) {
	minority := nodes[:2]
	majority := nodes[2:]
	c.Sched.At(c.Sched.Now()+d/4, func() {
		c.Net.Partition(minority, majority)
		logf("partition: %v | %v", minority, majority)
	})
	c.Sched.At(c.Sched.Now()+3*d/4, func() {
		c.Net.Heal()
		logf("partition healed")
	})
}
