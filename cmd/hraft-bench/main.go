// Command hraft-bench regenerates every table and figure from the paper's
// evaluation section (plus the ablations of internal/bench/ablation.go) on the deterministic
// simulator, printing the same rows/series the paper reports.
//
// Usage:
//
//	hraft-bench -experiment all            # everything, paper-scale
//	hraft-bench -experiment fig3           # Figure 3 only
//	hraft-bench -experiment fig5 -trials 1 # quicker sweep
//
// The tables go to stdout and are deterministic per seed; the wall time each
// experiment took goes to stderr.
package main

import (
	"flag"
	"fmt"
	"os"

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
	if err := bench.Run(os.Stdout, os.Stderr, *experiment, *trials, *seed, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "hraft-bench:", err)
		os.Exit(1)
	}
}
