package bench

import (
	"bytes"
	"flag"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// Small parameterizations keep these correctness tests fast; the full
// paper-scale sweeps run from cmd/hraft-bench.

var update = flag.Bool("update", false, "rewrite testdata/quick.txt from the current figures")

// TestQuickFiguresMatchBaseline pins every virtual-time figure byte for
// byte: the -quick output of Fig 3, Fig 4, Fig 5 and the read sweep must
// equal the committed baseline. After a change that moves a figure on
// purpose, regenerate it with `go test ./internal/bench -run Baseline -update`.
func TestQuickFiguresMatchBaseline(t *testing.T) {
	const path = "testdata/quick.txt"
	var out bytes.Buffer
	for _, e := range []string{"fig3", "fig4", "fig5", "reads"} {
		if err := Run(&out, io.Discard, e, 0, 1, true); err != nil {
			t.Fatalf("%s: %v", e, err)
		}
	}
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("figures moved from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}

func TestFig3ShapeAtLowLoss(t *testing.T) {
	rows, err := Fig3CommitLatency(Fig3Options{
		LossPercents: []float64{0, 5},
		Entries:      30,
		Trials:       2,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	zero := rows[0]
	if zero.Speedup < 1.5 {
		t.Fatalf("paper: ~2x speedup at 0%% loss; got %.2fx (raft=%s fast=%s)",
			zero.Speedup, zero.Raft.Mean, zero.FastRaft.Mean)
	}
	if rows[1].FastRaft.Mean <= rows[0].FastRaft.Mean {
		t.Fatalf("fast raft should degrade with loss: 0%%=%s 5%%=%s",
			rows[0].FastRaft.Mean, rows[1].FastRaft.Mean)
	}
	var sb strings.Builder
	PrintFig3(&sb, rows)
	if !strings.Contains(sb.String(), "Figure 3") {
		t.Fatal("table header missing")
	}
}

func TestFig4SilentLeaveShape(t *testing.T) {
	res, err := Fig4SilentLeave(Fig4Options{
		Seed:    3,
		LeaveAt: 8 * time.Second,
		RunFor:  40 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Before.Count == 0 || res.After.Count == 0 {
		t.Fatalf("missing phases: before=%d during=%d after=%d",
			res.Before.Count, res.During.Count, res.After.Count)
	}
	// Paper: before the leave the fast track dominates; during detection
	// only the classic track is available, so latency rises; after the
	// configuration shrinks latency returns to the 50–100 ms band.
	if res.During.Count > 0 && res.During.Mean <= res.Before.Mean {
		t.Fatalf("latency should rise during detection: before=%s during=%s",
			res.Before.Mean, res.During.Mean)
	}
	if res.ConfigShrunkAt == 0 {
		t.Fatal("configuration never shrank after silent leaves")
	}
	if res.After.Mean > 2*res.Before.Mean+50*time.Millisecond {
		t.Fatalf("latency should recover after reconfiguration: before=%s after=%s",
			res.Before.Mean, res.After.Mean)
	}
	var sb strings.Builder
	PrintFig4(&sb, res)
	if !strings.Contains(sb.String(), "Figure 4") {
		t.Fatal("series header missing")
	}
}

func TestFig5ShapeSmall(t *testing.T) {
	rows, err := Fig5Throughput(Fig5Options{
		ClusterCounts: []int{1, 4},
		Sites:         8,
		TrialDuration: 60 * time.Second,
		Warmup:        10 * time.Second,
		Trials:        1,
		Seed:          21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	// Paper shape: C-Raft's advantage grows with geographic distribution.
	if rows[1].Speedup <= rows[0].Speedup {
		t.Fatalf("speedup should grow with clusters: n=1 %.2fx, n=4 %.2fx",
			rows[0].Speedup, rows[1].Speedup)
	}
	if rows[1].Speedup < 1.5 {
		t.Fatalf("c-raft should clearly beat raft at 4 geo clusters: %.2fx", rows[1].Speedup)
	}
	var sb strings.Builder
	PrintFig5(&sb, rows)
	if !strings.Contains(sb.String(), "Figure 5") {
		t.Fatal("table header missing")
	}
}

func TestAblationFastTrack(t *testing.T) {
	rows, err := AblationFastTrack(Fig3Options{Entries: 20, Trials: 1, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 variants, got %d", len(rows))
	}
	if rows[0].Latency.Mean >= rows[1].Latency.Mean {
		t.Fatalf("fast track should reduce latency: on=%s off=%s",
			rows[0].Latency.Mean, rows[1].Latency.Mean)
	}
}

// TestAblationHeartbeatScales pins what the heartbeat governs. Without loss
// classic Raft's latency scales with it (an entry waits for the tick to be
// dispatched) and Fast Raft's does not (the fast track commits when the
// votes arrive); under loss Fast Raft's does too, because an entry that
// misses its fast quorum is decided at the tick.
func TestAblationHeartbeatScales(t *testing.T) {
	sweep := func(lossPct float64) (short, long AblationHeartbeatRow) {
		t.Helper()
		rows, err := AblationHeartbeat(
			Fig3Options{Entries: 40, Trials: 2, Seed: 41, LossPercents: []float64{lossPct}},
			[]time.Duration{50 * time.Millisecond, 200 * time.Millisecond},
		)
		if err != nil {
			t.Fatal(err)
		}
		return rows[0], rows[1]
	}
	short, long := sweep(0)
	if long.Raft.Mean < 2*short.Raft.Mean {
		t.Fatalf("classic raft should scale with the heartbeat: 50ms=%s 200ms=%s",
			short.Raft.Mean, long.Raft.Mean)
	}
	// The first proposal of a trial may meet a leader that has not yet
	// committed its term's no-op; the median is the fast track's own figure.
	// (Network jitter differs between the two runs; a fourfold heartbeat
	// must not move the median by anything like that.)
	if long.FastRaft.P50 > short.FastRaft.P50*3/2 {
		t.Fatalf("fast track should not depend on the heartbeat: 50ms=%s 200ms=%s",
			short.FastRaft.P50, long.FastRaft.P50)
	}
	if short.FastRaft.P50 >= 50*time.Millisecond/10 {
		t.Fatalf("fast track should commit in a round trip, far inside a heartbeat: %s", short.FastRaft.P50)
	}
	short, long = sweep(10)
	if long.FastRaft.Mean < 2*short.FastRaft.Mean {
		t.Fatalf("under loss fast raft falls back to the tick and should scale with it: 50ms=%s 200ms=%s",
			short.FastRaft.Mean, long.FastRaft.Mean)
	}
}

func TestAblationBatchSizeRuns(t *testing.T) {
	rows, err := AblationBatchSize(Fig5Options{
		Sites:         8,
		TrialDuration: 45 * time.Second,
		Warmup:        10 * time.Second,
		Trials:        1,
		Seed:          51,
	}, 4, []int{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.PerSec <= 0 {
			t.Fatalf("batch=%d produced no throughput", r.BatchSize)
		}
	}
}
