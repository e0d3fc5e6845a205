package bench

import (
	"fmt"
	"io"
	"time"
)

// Run regenerates one experiment (fig3, fig4, fig5, ablations or reads), or
// all of them in that order, and prints its tables to out. trials overrides
// the per-point trial count (0 = paper default); quick shrinks every
// workload for a fast smoke run. Everything printed to out is a virtual-time
// figure, deterministic per seed; the wall time each experiment took goes to
// log.
func Run(out, log io.Writer, experiment string, trials int, seed int64, quick bool) error {
	fig3 := Fig3Options{Trials: trials, Seed: seed}
	fig4 := Fig4Options{Seed: seed}
	fig5 := Fig5Options{Trials: trials, Seed: seed}
	reads := ReadOptions{Seed: seed}
	if quick {
		fig3.Entries = 30
		if trials == 0 {
			fig3.Trials = 2
			fig5.Trials = 1
		}
		fig4.RunFor = 25 * time.Second
		fig5.TrialDuration = time.Minute
		reads.Reads = 20
		reads.Proposals = 10
		reads.Trials = 1
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"fig3", func() error {
			rows, err := Fig3CommitLatency(fig3)
			if err == nil {
				PrintFig3(out, rows)
			}
			return err
		}},
		{"fig4", func() error {
			res, err := Fig4SilentLeave(fig4)
			if err == nil {
				PrintFig4(out, res)
			}
			return err
		}},
		{"fig5", func() error {
			rows, err := Fig5Throughput(fig5)
			if err == nil {
				PrintFig5(out, rows)
			}
			return err
		}},
		{"ablations", func() error { return runAblations(out, fig3, fig5) }},
		{"reads", func() error {
			rows, err := ReadSweep(reads)
			if err == nil {
				PrintReads(out, rows)
			}
			return err
		}},
	}
	ran := false
	for _, s := range steps {
		if experiment != "all" && experiment != s.name {
			continue
		}
		started := time.Now()
		if err := s.run(); err != nil {
			return err
		}
		fmt.Fprintf(log, "(%s completed in %s wall time)\n", s.name, time.Since(started).Round(time.Millisecond))
		fmt.Fprintln(out)
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return nil
}

func runAblations(out io.Writer, fig3 Fig3Options, fig5 Fig5Options) error {
	a1, err := AblationFastTrack(fig3)
	if err != nil {
		return err
	}
	PrintAblationFastTrack(out, a1)
	fmt.Fprintln(out)

	clusters := 10
	if fig5.Sites != 0 && fig5.Sites < 20 {
		clusters = 4
	}
	a2, err := AblationBatchSize(fig5, clusters, nil)
	if err != nil {
		return err
	}
	PrintAblationBatchSize(out, clusters, a2)
	fmt.Fprintln(out)

	a3, err := AblationHeartbeat(fig3, nil)
	if err != nil {
		return err
	}
	PrintAblationHeartbeat(out, a3)
	return nil
}
