// Package bench implements the paper's evaluation: one experiment per
// figure, each built from the simulation harness, plus the ablations in
// ablation.go. Every experiment returns structured rows and can print the
// same table/series the paper reports.
package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/hraft-io/hraft/internal/harness"
	"github.com/hraft-io/hraft/internal/stats"
	"github.com/hraft-io/hraft/internal/types"
)

// Fig3Options parametrizes the Figure 3 experiment: commit latency of
// classic Raft vs Fast Raft under varying message loss (5 sites, one
// region, 100 entries per trial in the paper).
type Fig3Options struct {
	// LossPercents are the message-loss settings to sweep (paper: 0–10%).
	LossPercents []float64
	// Entries is the number of committed entries measured per trial.
	Entries int
	// Trials is the number of independent seeded trials per point.
	Trials int
	// Seed is the base random seed.
	Seed int64
	// Heartbeat overrides the leader tick period (0 = paper's 100 ms).
	Heartbeat time.Duration
	// Sites is the cluster size (0 = paper's 5).
	Sites int
	// DisableFastTrack turns Fast Raft's fast track off, making it a
	// classic proposer (ablation A1).
	DisableFastTrack bool
}

// Defaults fills unset fields with the paper's settings.
func (o *Fig3Options) Defaults() {
	if len(o.LossPercents) == 0 {
		o.LossPercents = []float64{0, 1, 2.5, 5, 7.5, 10}
	}
	if o.Entries == 0 {
		o.Entries = 100
	}
	if o.Trials == 0 {
		o.Trials = 5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Sites == 0 {
		o.Sites = 5
	}
}

// Fig3Row is one sweep point of Figure 3.
type Fig3Row struct {
	// LossPercent is the injected message loss.
	LossPercent float64
	// Raft summarizes classic Raft commit latency.
	Raft stats.Summary
	// FastRaft summarizes Fast Raft commit latency.
	FastRaft stats.Summary
	// Speedup is Raft mean / Fast Raft mean.
	Speedup float64
}

// Fig3CommitLatency reproduces Figure 3.
func Fig3CommitLatency(opts Fig3Options) ([]Fig3Row, error) {
	opts.Defaults()
	rows := make([]Fig3Row, 0, len(opts.LossPercents))
	for i, loss := range opts.LossPercents {
		raftSum, err := fig3Point(opts, harness.KindRaft, loss, opts.Seed+int64(100*i))
		if err != nil {
			return nil, fmt.Errorf("fig3 raft loss=%v: %w", loss, err)
		}
		fastSum, err := fig3Point(opts, harness.KindFastRaft, loss, opts.Seed+int64(100*i)+50)
		if err != nil {
			return nil, fmt.Errorf("fig3 fastraft loss=%v: %w", loss, err)
		}
		row := Fig3Row{LossPercent: loss, Raft: raftSum, FastRaft: fastSum}
		if fastSum.Mean > 0 {
			row.Speedup = float64(raftSum.Mean) / float64(fastSum.Mean)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// fig3Point measures one protocol at one loss setting, pooling latencies
// over the configured trials.
func fig3Point(opts Fig3Options, kind harness.Kind, lossPct float64, seed int64) (stats.Summary, error) {
	var all []time.Duration
	for trial := 0; trial < opts.Trials; trial++ {
		sum, err := fig3Trial(opts, kind, lossPct, seed+int64(trial))
		if err != nil {
			return stats.Summary{}, err
		}
		all = append(all, sum...)
	}
	return stats.Summarize(all), nil
}

func fig3Trial(opts Fig3Options, kind harness.Kind, lossPct float64, seed int64) ([]time.Duration, error) {
	nodes := siteNames(opts.Sites)
	c, err := harness.NewCluster(harness.Options{
		Kind:              kind,
		Nodes:             nodes,
		Seed:              seed,
		LossProb:          lossPct / 100,
		HeartbeatInterval: opts.Heartbeat,
		DisableFastTrack:  opts.DisableFastTrack,
		Audit:             harness.AuditOff,
	})
	if err != nil {
		return nil, err
	}
	if _, ok := c.WaitForLeader(30 * time.Second); !ok {
		return nil, fmt.Errorf("no leader elected (kind=%v loss=%v)", kind, lossPct)
	}
	// The paper chooses a site at random to be the proposer; with the
	// leader position itself random, a fixed non-first site is equivalent
	// under our seeding.
	proposer := nodes[1]
	p, err := c.StartProposer(harness.ProposerOptions{Node: proposer, MaxProposals: opts.Entries})
	if err != nil {
		return nil, err
	}
	deadline := c.Sched.Now() + time.Duration(opts.Entries)*5*time.Second
	if !c.RunUntil(func() bool { return p.Completed >= opts.Entries }, deadline) {
		return nil, fmt.Errorf("only %d/%d entries committed (kind=%v loss=%v)",
			p.Completed, opts.Entries, kind, lossPct)
	}
	if err := c.Safety.Err(); err != nil {
		return nil, err
	}
	return p.Series.Values(), nil
}

func siteNames(n int) []types.NodeID {
	out := make([]types.NodeID, n)
	for i := range out {
		out[i] = types.NodeID(fmt.Sprintf("n%d", i+1))
	}
	return out
}

// PrintFig3 renders the Figure 3 table.
func PrintFig3(w io.Writer, rows []Fig3Row) {
	fmt.Fprintf(w, "Figure 3: average commit latency, classic Raft vs Fast Raft (5 sites, one region)\n")
	fmt.Fprintf(w, "%-8s %-14s %-14s %-14s %-14s %s\n",
		"loss%", "raft-mean", "raft-p90", "fast-mean", "fast-p90", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8.1f %-14s %-14s %-14s %-14s %.2fx\n",
			r.LossPercent,
			r.Raft.Mean.Round(time.Millisecond),
			r.Raft.P90.Round(time.Millisecond),
			r.FastRaft.Mean.Round(time.Millisecond),
			r.FastRaft.P90.Round(time.Millisecond),
			r.Speedup)
	}
}
