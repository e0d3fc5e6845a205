package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
)

// schemaVersion numbers the result file's layout.
const schemaVersion = 1

// hostInfo fingerprints the machine a result was measured on: results from
// different fingerprints are not comparable.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	FSType     string `json:"tmp_fs_type"` // file system under the WAL directories
}

// summary condenses one metric's per-repeat values.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Spread  float64   `json:"spread"` // (q3-q1)/median
	Bound   float64   `json:"bound,omitempty"`
	Samples float64   `json:"samples"` // operations behind the value, median over repeats
	Values  []float64 `json:"values"`  // one per repeat, in run order
}

type workloadResult struct {
	Name    string             `json:"name"`
	Why     string             `json:"why"`
	Runs    []*runResult       `json:"runs"`
	Summary map[string]summary `json:"summary"`
}

// resultFile is what a suite run writes: enough to re-derive every printed
// number and to tell whether two files may be compared.
type resultFile struct {
	Schema    int               `json:"schema"`
	Commit    string            `json:"git_commit"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Repeats   int               `json:"repeats"`
	Traced    bool              `json:"traced"`
	Host      hostInfo          `json:"host"`
	Settings  map[string]string `json:"settings"`
	Workloads []*workloadResult `json:"workloads"`
}

var fsNames = map[int64]string{
	0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs",
	0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x858458F6: "ramfs",
}

// fsType names the file system holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func hostFingerprint(outDir string) hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
		FSType:     fsType(outDir),
	}
}

// gitCommit reads the checked-out commit from the .git directory above the
// working directory, without running git; "unknown" outside a repository.
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for i := 0; i < 4; i++ {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err == nil {
			ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
			if !ok {
				return strings.TrimSpace(string(head))
			}
			if sha, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
				return strings.TrimSpace(string(sha))
			}
			return ref
		}
		dir = filepath.Dir(dir)
	}
	return "unknown"
}

// fixedSettings records the constants the workloads run with.
func fixedSettings() map[string]string {
	return map[string]string{
		"payload_bytes":       fmt.Sprint(payloadBytes),
		"heartbeat":           heartbeat.String(),
		"election_timeout":    fmt.Sprintf("%v-%v", electionMin, electionMax),
		"wal":                 "GroupCommit=true SyncWindow=-1",
		"warmup_commits":      fmt.Sprint(warmupCommits),
		"closed_window":       fmt.Sprint(closedWindow),
		"fail_after":          failAfter.String(),
		"open_rate":           fmt.Sprint(openRate),
		"ladder_rates":        fmt.Sprint(ladderRates),
		"ladder_step_p99_ms":  fmt.Sprint(stepP99Ms),
		"follower_rate":       fmt.Sprint(followerRate),
		"lease_read_rate":     fmt.Sprint(leaseRate),
		"readers":             fmt.Sprint(readers),
		"run_in":              fmt.Sprintf("%v, %d proposals/s at a second member", runInFor, collideRate),
		"rounds":              fmt.Sprintf("%d set-ups per run; craft3x3_delay measures in each, the others in the last", roundsPerRun),
		"craft_delay":         fmt.Sprintf("%v intra, %v inter, one way", craftIntra, craftInter),
		"craft_heartbeats":    fmt.Sprintf("%v local, %v global", heartbeat, craftGlobalHB),
		"craft_batch":         fmt.Sprintf("size %d, %d in flight", craftBatch, craftInflight),
		"craft_open_rate":     fmt.Sprint(craftOpenRate),
		"craft_closed_window": fmt.Sprint(craftWindow),
	}
}

// summarize condenses the runs of one workload, metric by metric.
func summarize(runs []*runResult, specs []metricSpec) map[string]summary {
	out := map[string]summary{}
	var samples []float64
	for _, r := range runs {
		samples = append(samples, r.Info["samples"])
	}
	for _, spec := range specs {
		var vals []float64
		for _, r := range runs {
			if v, ok := r.Metrics[spec.Name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			continue
		}
		q1, q3 := quartiles(vals)
		out[spec.Name] = summary{Unit: spec.Unit, Median: median(vals), Q1: q1, Q3: q3,
			Spread: spread(vals), Bound: spec.Bound, Samples: median(samples), Values: vals}
	}
	return out
}

// printSummary prints every metric of one workload by name, with unit,
// sample count and (unless bounds are off) regression bound.
func printSummary(w io.Writer, wr *workloadResult, specs []metricSpec, bounds bool) {
	fmt.Fprintf(w, "\n%s  (%d repeats)\n", wr.Name, len(wr.Runs))
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tunit\tmedian\tq1\tq3\tspread\tsamples\tregress if worse by")
	for _, spec := range specs {
		s, ok := wr.Summary[spec.Name]
		if !ok {
			continue
		}
		bound := "-"
		if bounds && spec.Bound > 0 {
			bound = fmt.Sprintf("%.3g%%", spec.Bound*100)
		}
		fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%.6g\t%.6g\t%.1f%%\t%.0f\t%s\n",
			spec.Name, spec.Unit, s.Median, s.Q1, s.Q3, s.Spread*100, s.Samples, bound)
	}
	tw.Flush()
	if last := wr.Runs[len(wr.Runs)-1]; len(last.Info) > 0 {
		fmt.Fprintf(w, "  info (last repeat): %s\n", formatInfo(last.Info))
	}
}

func formatInfo(info map[string]float64) string {
	keys := make([]string, 0, len(info))
	for k := range info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.4g", k, info[k])
	}
	return strings.Join(parts, " ")
}

func writeResult(path string, rf *resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %d, this program reads %d", path, rf.Schema, schemaVersion)
	}
	return &rf, nil
}

// verdict is -compare's judgement of one (workload, metric) pair.
type verdict struct {
	Workload, Metric, Unit string
	Old, New               float64 // medians
	Worse                  float64 // share of Old by which New is worse (negative = better)
	Spread                 float64 // the wider of the two sides' spreads
	Bound                  float64
	Status                 string // ok, regressed, unresolved
}

// compareResults applies each end-to-end metric's bound to every workload
// both files hold. A metric is regressed when the new median is worse than
// the old by more than its bound and by more than the repeats' own spread;
// otherwise unresolved when that spread is wider than the bound, since a
// shift of the size the bound forbids could not have been seen; else ok.
func compareResults(old, new *resultFile) []verdict {
	var out []verdict
	for _, ow := range old.Workloads {
		for _, nw := range new.Workloads {
			if ow.Name != nw.Name {
				continue
			}
			for _, spec := range endToEndSpecs {
				o, ok1 := ow.Summary[spec.Name]
				n, ok2 := nw.Summary[spec.Name]
				if !ok1 || !ok2 || o.Median == 0 {
					continue
				}
				v := verdict{Workload: ow.Name, Metric: spec.Name, Unit: spec.Unit, Old: o.Median, New: n.Median,
					Bound: spec.Bound, Spread: max(o.Spread, n.Spread), Status: "ok"}
				v.Worse = (n.Median - o.Median) / o.Median
				if spec.Better == "higher" {
					v.Worse = -v.Worse
				}
				switch {
				case v.Worse > v.Bound && v.Worse > v.Spread:
					v.Status = "regressed"
				case v.Spread > v.Bound:
					v.Status = "unresolved"
				}
				out = append(out, v)
			}
		}
	}
	return out
}

// printVerdicts prints one row per (workload, metric), every ratio with its
// base, and reports whether any row regressed.
func printVerdicts(w io.Writer, vs []verdict) (regressed bool) {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase (old median)\tnew median\tnew/old\tworse by\tspread\tbound\tverdict")
	for _, v := range vs {
		fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f\t%+.2f%%\t%.2f%%\t%.3g%%\t%s\n",
			v.Workload, v.Metric, v.Old, v.Unit, v.New, v.Unit, v.New/v.Old, v.Worse*100, v.Spread*100, v.Bound*100, v.Status)
		regressed = regressed || v.Status == "regressed"
	}
	tw.Flush()
	return regressed
}
