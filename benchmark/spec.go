package main

import (
	"bytes"
	"encoding/json"
)

// metricSpec declares one metric. Bound is the share of the baseline's
// median by which an end-to-end metric may worsen before -compare (and the
// driver that reads BENCHMARK.json) calls it a regression; per-layer
// metrics have none. README.md says which end-to-end metric, on which
// workload, each per-layer metric should move.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEndSpecs are reported by every workload with tracing off. What "the
// operation" is, and which percentile its tail is, differs per workload;
// README.md has the table. The bounds are issue 12's.
var endToEndSpecs = []metricSpec{
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "ok_frac", Unit: "frac", Better: "higher", Bound: 0.001},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayerSpecs are reported by every workload on the traced pass; a layer
// the workload bypasses reads 0.
var perLayerSpecs = []metricSpec{
	{Name: "types.encode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "types.decode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "types.decode_allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "types.wire_bytes_per_commit", Unit: "B", Better: "lower"},

	{Name: "udpnet.msgs_per_commit", Unit: "count", Better: "lower"},
	{Name: "udpnet.send_busy_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "udpnet.send_errors", Unit: "count", Better: "lower"},
	{Name: "udpnet.loopback_rtt_us_p50", Unit: "us", Better: "lower"},

	{Name: "runtime.propose_call_us_p50", Unit: "us", Better: "lower"},
	{Name: "runtime.deliver_busy_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "runtime.commits_chan_depth_max", Unit: "count", Better: "lower"},
	{Name: "runtime.cpu_ms_per_commit", Unit: "ms", Better: "lower"},
	{Name: "runtime.allocs_per_commit", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.goroutines", Unit: "count", Better: "lower"},

	{Name: "storage.append_call_us_p50", Unit: "us", Better: "lower"},
	{Name: "storage.fsyncs_per_commit", Unit: "count", Better: "lower"},
	{Name: "storage.records_per_fsync", Unit: "count", Better: "higher"},
	{Name: "storage.fsync_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "storage.fsync_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "storage.wal_bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "storage.sync_append_us_p50", Unit: "us", Better: "lower"},

	{Name: "durable.lsn_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "durable.lsn_wait_ms_p99", Unit: "ms", Better: "lower"},

	{Name: "logstore.append_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "logstore.append_allocs_per_entry", Unit: "count", Better: "lower"},
	{Name: "quorum.tally_decide_ns", Unit: "ns", Better: "lower"},
	{Name: "quorum.tally_decide_allocs", Unit: "count", Better: "lower"},

	{Name: "replica.entries_per_append", Unit: "count", Better: "higher"},
	{Name: "replica.follower_lag_entries_p50", Unit: "count", Better: "lower"},
	{Name: "replica.follower_lag_entries_max", Unit: "count", Better: "lower"},
	{Name: "replica.srtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "replica.inflight_bytes_max", Unit: "B", Better: "lower"},
	{Name: "replica.appends_byte_limited", Unit: "count", Better: "lower"},
	{Name: "replica.appends_throttled", Unit: "count", Better: "lower"},

	{Name: "fastraft.commit_latency_in_heartbeats", Unit: "count", Better: "lower"},
	{Name: "fastraft.vote_msgs_per_commit", Unit: "count", Better: "lower"},
	{Name: "fastraft.append_msgs_per_commit", Unit: "count", Better: "lower"},
	{Name: "fastraft.heartbeat_msgs_per_s", Unit: "1/s", Better: "lower"},
	{Name: "fastraft.dup_commits", Unit: "count", Better: "lower"},
	{Name: "fastraft.term_changes", Unit: "count", Better: "lower"},
	{Name: "fastraft.proposals_queued", Unit: "count", Better: "lower"},

	{Name: "readpath.reads_per_confirm_round", Unit: "count", Better: "higher"},
	{Name: "readpath.lease_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "readpath.lease_fast_frac", Unit: "frac", Better: "higher"},
	{Name: "readpath.msgs_per_read", Unit: "count", Better: "lower"},
	{Name: "readpath.reads_failed", Unit: "count", Better: "lower"},
	{Name: "readpath.index_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "readpath.follower_ms_p95", Unit: "ms", Better: "lower"},

	{Name: "craft.items_per_batch", Unit: "count", Better: "higher"},
	{Name: "craft.batches_per_s", Unit: "1/s", Better: "higher"},
	{Name: "craft.batches_throttled", Unit: "count", Better: "lower"},
	{Name: "craft.global_lag_entries_max", Unit: "count", Better: "lower"},
	{Name: "craft.global_msgs_per_entry", Unit: "count", Better: "lower"},
	{Name: "craft.local_msgs_per_entry", Unit: "count", Better: "lower"},
	{Name: "craft.local_commit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "craft.saturated_entries_per_s", Unit: "1/s", Better: "higher"},

	{Name: "ledger.client_mean_us", Unit: "us", Better: "lower"},
	{Name: "ledger.runtime_self_us", Unit: "us", Better: "lower"},
	{Name: "ledger.udpnet_self_us", Unit: "us", Better: "lower"},
	{Name: "ledger.storage_self_us", Unit: "us", Better: "lower"},
	{Name: "ledger.durable_wait_us", Unit: "us", Better: "lower"},
	{Name: "ledger.uncovered_wait_us", Unit: "us", Better: "lower"},
	{Name: "ledger.coverage_frac", Unit: "frac", Better: "higher"},

	{Name: "trace.stage_propose_mean_us", Unit: "us", Better: "lower"},
	{Name: "trace.stage_append_mean_us", Unit: "us", Better: "lower"},
	{Name: "trace.stage_replicate_mean_us", Unit: "us", Better: "lower"},
	{Name: "trace.stage_quorum_mean_us", Unit: "us", Better: "lower"},
	{Name: "trace.stage_commit_mean_us", Unit: "us", Better: "lower"},
	{Name: "trace.stage_apply_mean_us", Unit: "us", Better: "lower"},
	{Name: "trace.stage_total_mean_us", Unit: "us", Better: "lower"},
	{Name: "trace.stage_total_over_client", Unit: "frac", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},

	{Name: "gen.late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "gen.late_ms_max", Unit: "ms", Better: "lower"},
	{Name: "gen.max_rate_ok", Unit: "1/s", Better: "higher"},
}

// runSeconds is how long the measured part of one run lasts when the driver
// (or nobody) says otherwise.
const runSeconds = 15

// benchmarkJSON renders the declaration the repository keeps at its root as
// BENCHMARK.json, so that file is generated from these tables and never
// drifts from them: go run . -declare > ../BENCHMARK.json
func benchmarkJSON() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	decl := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadSpecs {
		if !w.suiteOnly {
			decl.Workloads = append(decl.Workloads, workload{w.name, w.why})
		}
	}
	for _, s := range endToEndSpecs {
		decl.EndToEnd = append(decl.EndToEnd, e2e{s.Name, s.Unit, s.Better, s.Bound})
	}
	for _, s := range perLayerSpecs {
		decl.PerLayer = append(decl.PerLayer, layer{s.Name, s.Unit, s.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	err := enc.Encode(decl)
	return buf.Bytes(), err
}
