// Command benchmark measures hraft end to end — replicated groups over a real
// transport with fsyncing logs, driven by closed- and open-loop clients — and,
// on a second, traced pass, layer by layer.
//
//	go run .                         every workload, three repeats, out/result.json
//	go run . -trace 1                the traced pass: per-layer metrics, span files
//	go run . -compare old.json new.json
//	go run . -workload fr3_udp_mem_open -seed 7 -seconds 15 -trace 0
//
// The last form is the one BENCHMARK.json declares (through run.sh): one run
// of one workload, whose last line of output is one JSON object. Everything
// else about a run is fixed (cluster.go, nodebench.go) and recorded in the
// result file. README.md explains the workloads, the metrics and how they
// should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// options are the command line.
type options struct {
	run     runConfig // -workload (empty = suite), -seed, -seconds, -trace, -smoke
	repeats int
	compare bool
	declare bool
}

func main() {
	var o options
	trace := flag.Int("trace", 0, "1 = traced pass: per-layer metrics and a span file per workload")
	flag.StringVar(&o.run.workload, "workload", "", "run this one workload once and print one JSON line (the driver's form)")
	flag.Int64Var(&o.run.seed, "seed", 1, "workload seed: reaches the system only through generated inputs and Seed fields")
	flag.Float64Var(&o.run.seconds, "seconds", runSeconds, "length of a run's measured part")
	flag.IntVar(&o.repeats, "repeats", 3, "repeats per workload (suite)")
	flag.BoolVar(&o.run.smoke, "smoke", false, "rot check: every workload once, traced and untraced, 1 s each, no bounds applied")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files given as arguments; exit 1 if any metric regressed")
	flag.BoolVar(&o.declare, "declare", false, "print BENCHMARK.json and exit")
	flag.Parse()
	o.run.trace = *trace != 0
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	switch {
	case o.declare:
		decl, err := benchmarkJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(decl)
		return err
	case o.compare:
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result files: old.json new.json")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	cfg := o.run
	if cfg.seconds <= 0 || o.repeats < 1 {
		return errors.New("-seconds and -repeats must be positive")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if cfg.workload != "" {
		return driverRun(cfg)
	}
	if cfg.smoke {
		cfg.seconds = 1
		for _, traced := range []bool{false, true} {
			cfg.trace = traced
			if _, err := suite(cfg, 1); err != nil {
				return err
			}
		}
		return nil
	}
	rf, err := suite(cfg, o.repeats)
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "result.json")
	if cfg.trace {
		path = filepath.Join(outDir, "result-traced.json")
	}
	if err := writeResult(path, rf); err != nil {
		return err
	}
	fmt.Printf("\nresult file: %s\n", path)
	return nil
}

// driverRun is one run of one workload, reported as the driver expects: one
// JSON object on the last line of standard output. A run that fails the
// correctness gate prints what it found, withholds the metrics and fails.
func driverRun(cfg runConfig) error {
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	specs := endToEndSpecs
	if cfg.trace {
		specs = perLayerSpecs
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	if res.Correct {
		for _, s := range specs {
			line.Metrics[s.Name] = value{res.Metrics[s.Name], s.Unit}
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %s\n", cfg.workload, cfg.seed, formatInfo(res.Info))
	}
	for _, v := range res.Violations {
		fmt.Fprintf(os.Stderr, "benchmark: %s: VIOLATION: %s\n", cfg.workload, v)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("%s failed the correctness gate", cfg.workload)
	}
	return nil
}

// suite runs every workload repeats times with base's settings (its seed
// plus the repeat's number), reversing their order on every other repeat so
// that no workload always runs on a warm (or a tired) machine, prints every
// metric and returns the result file.
func suite(base runConfig, repeats int) (*resultFile, error) {
	rf := &resultFile{Schema: schemaVersion, Commit: gitCommit(), Seed: base.seed, Seconds: base.seconds, Repeats: repeats,
		Traced: base.trace, Host: hostFingerprint(outDir), Settings: fixedSettings()}
	byName := map[string]*workloadResult{}
	var names []string
	for _, spec := range workloadSpecs {
		wr := &workloadResult{Name: spec.name, Why: spec.why}
		byName[spec.name] = wr
		rf.Workloads = append(rf.Workloads, wr)
		names = append(names, spec.name)
	}
	fmt.Printf("host: %d cpus, GOMAXPROCS %d, %s, kernel %s, logs on %s; commit %s\n",
		rf.Host.NumCPU, rf.Host.GOMAXPROCS, rf.Host.GoVersion, rf.Host.Kernel, rf.Host.FSType, rf.Commit)
	for r := 0; r < repeats; r++ {
		order := slices.Clone(names)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, name := range order {
			cfg := base
			cfg.workload, cfg.seed = name, base.seed+int64(r)
			res, err := runWorkload(cfg)
			if err != nil {
				return nil, err
			}
			if !res.Correct {
				for _, v := range res.Violations {
					fmt.Fprintf(os.Stderr, "benchmark: %s: VIOLATION: %s\n", name, v)
				}
				return nil, fmt.Errorf("%s failed the correctness gate; its metrics are withheld", name)
			}
			fmt.Fprintf(os.Stderr, "benchmark: repeat %d/%d %s done\n", r+1, repeats, name)
			byName[name].Runs = append(byName[name].Runs, res)
		}
	}
	specs := endToEndSpecs
	if base.trace {
		specs = perLayerSpecs
	}
	for _, wr := range rf.Workloads {
		wr.Summary = summarize(wr.Runs, specs)
		printSummary(os.Stdout, wr, specs, !base.smoke)
	}
	return rf, nil
}

func compareFiles(oldPath, newPath string) error {
	old, err := readResult(oldPath)
	if err != nil {
		return err
	}
	cur, err := readResult(newPath)
	if err != nil {
		return err
	}
	if old.Host != cur.Host {
		fmt.Printf("warning: host fingerprints differ (%+v vs %+v): the comparison says little\n", old.Host, cur.Host)
	}
	fmt.Printf("old: %s (commit %s)\nnew: %s (commit %s)\n", oldPath, old.Commit, newPath, cur.Commit)
	if printVerdicts(os.Stdout, compareResults(old, cur)) {
		return errors.New("at least one end-to-end metric regressed")
	}
	return nil
}
