// Command hraft-bench regenerates every table and figure from the paper's
// evaluation section (plus the ablations of internal/bench/ablation.go) on the deterministic
// simulator, printing the same rows/series the paper reports.
//
// Usage:
//
//	hraft-bench -experiment all            # everything, paper-scale
//	hraft-bench -experiment fig3           # Figure 3 only
//	hraft-bench -experiment fig5 -trials 1 # quicker sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/hraft-io/hraft/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all",
			"experiment to run: fig3, fig4, fig5, ablations, reads or all")
		trials = flag.Int("trials", 0, "trials per sweep point (0 = paper default)")
		seed   = flag.Int64("seed", 1, "base random seed")
		quick  = flag.Bool("quick", false, "smaller workloads for a fast smoke run")
	)
	flag.Parse()
	if err := run(*experiment, *trials, *seed, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "hraft-bench:", err)
		os.Exit(1)
	}
}

func run(experiment string, trials int, seed int64, quick bool) error {
	fig3 := bench.Fig3Options{Trials: trials, Seed: seed}
	fig4 := bench.Fig4Options{Seed: seed}
	fig5 := bench.Fig5Options{Trials: trials, Seed: seed}
	if quick {
		fig3.Entries = 30
		if trials == 0 {
			fig3.Trials = 2
			fig5.Trials = 1
		}
		fig4.RunFor = 25 * time.Second
		fig5.TrialDuration = time.Minute
	}
	reads := bench.ReadOptions{Seed: seed}
	if quick {
		reads.Reads = 20
		reads.Proposals = 10
		reads.Trials = 1
	}
	switch experiment {
	case "fig3":
		return runFig3(fig3)
	case "fig4":
		return runFig4(fig4)
	case "fig5":
		return runFig5(fig5)
	case "ablations":
		return runAblations(fig3, fig5)
	case "reads":
		return runReads(reads)
	case "all":
		if err := runFig3(fig3); err != nil {
			return err
		}
		if err := runFig4(fig4); err != nil {
			return err
		}
		if err := runFig5(fig5); err != nil {
			return err
		}
		if err := runAblations(fig3, fig5); err != nil {
			return err
		}
		return runReads(reads)
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
}

func runReads(opts bench.ReadOptions) error {
	started := time.Now()
	rows, err := bench.ReadSweep(opts)
	if err != nil {
		return err
	}
	bench.PrintReads(os.Stdout, rows)
	fmt.Printf("(reads done in %s wall time)\n\n", time.Since(started).Round(time.Millisecond))
	return nil
}

func runFig3(opts bench.Fig3Options) error {
	started := time.Now()
	rows, err := bench.Fig3CommitLatency(opts)
	if err != nil {
		return err
	}
	bench.PrintFig3(os.Stdout, rows)
	fmt.Printf("(fig3 completed in %s wall time)\n\n", time.Since(started).Round(time.Millisecond))
	return nil
}

func runFig4(opts bench.Fig4Options) error {
	started := time.Now()
	res, err := bench.Fig4SilentLeave(opts)
	if err != nil {
		return err
	}
	bench.PrintFig4(os.Stdout, res)
	fmt.Printf("(fig4 completed in %s wall time)\n\n", time.Since(started).Round(time.Millisecond))
	return nil
}

func runFig5(opts bench.Fig5Options) error {
	started := time.Now()
	rows, err := bench.Fig5Throughput(opts)
	if err != nil {
		return err
	}
	bench.PrintFig5(os.Stdout, rows)
	fmt.Printf("(fig5 completed in %s wall time)\n\n", time.Since(started).Round(time.Millisecond))
	return nil
}

func runAblations(fig3 bench.Fig3Options, fig5 bench.Fig5Options) error {
	started := time.Now()
	a1, err := bench.AblationFastTrack(fig3)
	if err != nil {
		return err
	}
	bench.PrintAblationFastTrack(os.Stdout, a1)
	fmt.Println()

	clusters := 10
	if fig5.Sites != 0 && fig5.Sites < 20 {
		clusters = 4
	}
	a2, err := bench.AblationBatchSize(fig5, clusters, nil)
	if err != nil {
		return err
	}
	bench.PrintAblationBatchSize(os.Stdout, clusters, a2)
	fmt.Println()

	a3, err := bench.AblationHeartbeat(fig3, nil)
	if err != nil {
		return err
	}
	bench.PrintAblationHeartbeat(os.Stdout, a3)
	fmt.Printf("(ablations completed in %s wall time)\n\n", time.Since(started).Round(time.Millisecond))
	return nil
}
