package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/hraft-io/hraft/internal/stats"
)

// AblationFastTrackRow compares Fast Raft with and without its fast track
// (ablation A1). With the track disabled the core is a classic Raft
// proposer — proposals go to the leader, which commits them on a classic
// quorum of acks — so the off row is the classic baseline, isolating the
// contribution of the paper's core mechanism.
type AblationFastTrackRow struct {
	// Variant names the configuration.
	Variant string
	// Latency summarizes commit latency.
	Latency stats.Summary
}

// AblationFastTrack runs ablation A1 on the Figure 3 setup at zero loss.
func AblationFastTrack(opts Fig3Options) ([]AblationFastTrackRow, error) {
	opts.Defaults()
	opts.LossPercents = []float64{0}
	var rows []AblationFastTrackRow
	for _, disabled := range []bool{false, true} {
		o := opts
		o.DisableFastTrack = disabled
		pts, err := Fig3CommitLatency(o)
		if err != nil {
			return nil, err
		}
		name := "fast track on"
		if disabled {
			name = "fast track off"
		}
		rows = append(rows, AblationFastTrackRow{Variant: name, Latency: pts[0].FastRaft})
	}
	return rows, nil
}

// PrintAblationFastTrack renders ablation A1.
func PrintAblationFastTrack(w io.Writer, rows []AblationFastTrackRow) {
	fmt.Fprintf(w, "Ablation A1: Fast Raft fast track on vs off (5 sites, 0%% loss)\n")
	fmt.Fprintf(w, "%-16s %-12s %-12s\n", "variant", "mean", "p90")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-12s %-12s\n", r.Variant,
			r.Latency.Mean.Round(time.Millisecond), r.Latency.P90.Round(time.Millisecond))
	}
}

// AblationBatchRow is one point of the C-Raft batch-size sweep (A2).
type AblationBatchRow struct {
	// BatchSize is entries per batch.
	BatchSize int
	// PerSec is global application-entry throughput.
	PerSec float64
}

// AblationBatchSize sweeps the C-Raft batch size on the Figure 5 setup at
// a fixed cluster count.
func AblationBatchSize(opts Fig5Options, clusters int, sizes []int) ([]AblationBatchRow, error) {
	opts.Defaults()
	if len(sizes) == 0 {
		sizes = []int{1, 5, 10, 20, 50}
	}
	rows := make([]AblationBatchRow, 0, len(sizes))
	for i, b := range sizes {
		o := opts
		o.BatchSize = b
		var total float64
		for trial := 0; trial < o.Trials; trial++ {
			v, err := fig5CraftTrial(o, clusters, o.Seed+int64(10000+100*i+trial))
			if err != nil {
				return nil, fmt.Errorf("ablation batch=%d: %w", b, err)
			}
			total += v
		}
		rows = append(rows, AblationBatchRow{BatchSize: b, PerSec: total / float64(o.Trials)})
	}
	return rows, nil
}

// PrintAblationBatchSize renders ablation A2.
func PrintAblationBatchSize(w io.Writer, clusters int, rows []AblationBatchRow) {
	fmt.Fprintf(w, "Ablation A2: C-Raft batch size sweep (%d clusters)\n", clusters)
	fmt.Fprintf(w, "%-12s %s\n", "batch", "entries/s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12d %.1f\n", r.BatchSize, r.PerSec)
	}
}

// AblationHeartbeatRow is one point of the heartbeat sweep (A3).
type AblationHeartbeatRow struct {
	// Heartbeat is the leader tick period.
	Heartbeat time.Duration
	// Raft and FastRaft summarize commit latency at this setting.
	Raft stats.Summary
	// FastRaft is the Fast Raft summary.
	FastRaft stats.Summary
}

// AblationHeartbeat sweeps the heartbeat interval on the Figure 3 setup at
// one loss setting (the first of opts.LossPercents; 0 % if none), showing
// what the leader tick period does and does not govern (README "Timing
// model"): classic Raft dispatches on the tick, so its latency scales with
// it; Fast Raft's fast track commits on vote arrival and does not — until
// loss breaks fast quorums and entries fall back to the tick, the fast
// track's timeout.
func AblationHeartbeat(opts Fig3Options, heartbeats []time.Duration) ([]AblationHeartbeatRow, error) {
	if len(opts.LossPercents) == 0 {
		opts.LossPercents = []float64{0}
	}
	opts.LossPercents = opts.LossPercents[:1]
	opts.Defaults()
	if len(heartbeats) == 0 {
		heartbeats = []time.Duration{
			25 * time.Millisecond, 50 * time.Millisecond,
			100 * time.Millisecond, 200 * time.Millisecond,
		}
	}
	rows := make([]AblationHeartbeatRow, 0, len(heartbeats))
	for _, hb := range heartbeats {
		o := opts
		o.Heartbeat = hb
		pts, err := Fig3CommitLatency(o)
		if err != nil {
			return nil, fmt.Errorf("ablation hb=%s: %w", hb, err)
		}
		rows = append(rows, AblationHeartbeatRow{
			Heartbeat: hb, Raft: pts[0].Raft, FastRaft: pts[0].FastRaft,
		})
	}
	return rows, nil
}

// PrintAblationHeartbeat renders ablation A3 (as run by the callers here:
// at 0 % loss).
func PrintAblationHeartbeat(w io.Writer, rows []AblationHeartbeatRow) {
	fmt.Fprintf(w, "Ablation A3: heartbeat sweep (5 sites, 0%% loss)\n")
	fmt.Fprintf(w, "%-12s %-12s %-12s\n", "heartbeat", "raft-mean", "fast-mean")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-12s %-12s\n", r.Heartbeat,
			r.Raft.Mean.Round(time.Millisecond), r.FastRaft.Mean.Round(time.Millisecond))
	}
}
