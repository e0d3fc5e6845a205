package hraft

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

type staticMetrics map[string]uint64

func (m staticMetrics) Metrics() map[string]uint64 { return m }

// staticPeers is a metric source that also exposes peer progress.
type staticPeers struct {
	staticMetrics
	peers []PeerStatus
}

func (s staticPeers) PeerStatus() []PeerStatus { return s.peers }

// TestMetricsHandlerPrometheusFormat pins the exposition format: histogram
// buckets carry numeric le values in seconds (what histogram_quantile
// needs), the sum is converted to seconds, and plain counters/gauges pass
// through sanitized.
func TestMetricsHandlerPrometheusFormat(t *testing.T) {
	src := staticMetrics{
		"hist.commit_latency.le.5ms":   3,
		"hist.commit_latency.le.2.5s":  7,
		"hist.commit_latency.le.inf":   9,
		"hist.commit_latency.count":    9,
		"hist.commit_latency.sum_us":   1500000,
		"replica.snapshot_chunks_sent": 12,
		"gauge.log_span":               42,
	}
	rec := httptest.NewRecorder()
	MetricsHandler("n1", src).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`hraft_hist_commit_latency_seconds_bucket{node="n1",le="0.005"} 3`,
		`hraft_hist_commit_latency_seconds_bucket{node="n1",le="2.5"} 7`,
		`hraft_hist_commit_latency_seconds_bucket{node="n1",le="+Inf"} 9`,
		`hraft_hist_commit_latency_seconds_count{node="n1"} 9`,
		`hraft_hist_commit_latency_seconds_sum{node="n1"} 1.5`,
		`hraft_replica_snapshot_chunks_sent{node="n1"} 12`,
		`hraft_gauge_log_span{node="n1"} 42`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
}

// TestMetricsHandlerMetadata pins the scrape metadata: every family gets
// exactly one # HELP and one # TYPE line, histograms are typed histogram
// with their buckets in ascending le order, gauge.* keys are typed gauge,
// and everything else counter.
func TestMetricsHandlerMetadata(t *testing.T) {
	src := staticMetrics{
		"hist.commit_latency.le.5ms":   3,
		"hist.commit_latency.le.10ms":  5,
		"hist.commit_latency.le.inf":   9,
		"hist.commit_latency.count":    9,
		"hist.commit_latency.sum_us":   1500000,
		"replica.snapshot_chunks_sent": 12,
		"gauge.log_span":               42,
		"local.gauge.sessions_open":    2,
	}
	rec := httptest.NewRecorder()
	MetricsHandler("n1", src).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# HELP hraft_hist_commit_latency_seconds ",
		"# TYPE hraft_hist_commit_latency_seconds histogram",
		"# TYPE hraft_replica_snapshot_chunks_sent counter",
		"# TYPE hraft_gauge_log_span gauge",
		"# TYPE hraft_local_gauge_sessions_open gauge",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	for _, dup := range []string{"# TYPE hraft_hist_commit_latency_seconds histogram"} {
		if strings.Count(body, dup) != 1 {
			t.Fatalf("metadata line %q emitted %d times:\n%s", dup, strings.Count(body, dup), body)
		}
	}
	// Buckets ascend numerically: 5ms before 10ms despite lexical order.
	i5 := strings.Index(body, `le="0.005"`)
	i10 := strings.Index(body, `le="0.01"`)
	iInf := strings.Index(body, `le="+Inf"`)
	if i5 < 0 || i10 < 0 || iInf < 0 || !(i5 < i10 && i10 < iInf) {
		t.Fatalf("buckets out of ascending le order (5ms@%d 10ms@%d inf@%d):\n%s", i5, i10, iInf, body)
	}
	// Every sample line belongs to a family whose metadata precedes it.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_count"), "_sum")
		typeLine := "# TYPE " + base + " "
		ti := strings.Index(body, typeLine)
		li := strings.Index(body, line)
		if ti < 0 || ti > li {
			t.Fatalf("sample %q not preceded by its TYPE metadata", line)
		}
	}
}

// TestMetricsHandlerAuditFamily pins the auditor exposition: the flat
// "audit.violations.<invariant>" counters collapse into one
// invariant-labeled family with a single metadata block, so one alert
// rule covers every invariant.
func TestMetricsHandlerAuditFamily(t *testing.T) {
	src := staticMetrics{
		"audit.violations.election-safety":  2,
		"audit.violations.committed-prefix": 1,
	}
	rec := httptest.NewRecorder()
	MetricsHandler("n1", src).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE hraft_audit_violations counter",
		`hraft_audit_violations{node="n1",invariant="election-safety"} 2`,
		`hraft_audit_violations{node="n1",invariant="committed-prefix"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	if n := strings.Count(body, "# TYPE hraft_audit_violations counter"); n != 1 {
		t.Fatalf("audit family metadata emitted %d times:\n%s", n, body)
	}
	// The flat keys must not also render as per-invariant families.
	if strings.Contains(body, "hraft_audit_violations_election_safety") {
		t.Fatalf("audit key leaked as an unlabeled family:\n%s", body)
	}
}

// TestMetricsHandlerRuntimeFamilies pins the process-level context every
// scrape carries: build info (value fixed at 1), uptime, goroutine count
// and heap gauges.
func TestMetricsHandlerRuntimeFamilies(t *testing.T) {
	rec := httptest.NewRecorder()
	MetricsHandler("n1", staticMetrics{}).ServeHTTP(rec,
		httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE hraft_build_info gauge",
		`hraft_build_info{node="n1",go_version="` + runtime.Version() + `"`,
		"# TYPE hraft_process_uptime_seconds gauge",
		`hraft_process_uptime_seconds{node="n1"} `,
		"# TYPE hraft_goroutines gauge",
		`hraft_goroutines{node="n1"} `,
		"# TYPE hraft_heap_alloc_bytes gauge",
		`hraft_heap_alloc_bytes{node="n1"} `,
		"# TYPE hraft_heap_objects gauge",
		"# TYPE hraft_gc_cycles_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	if !strings.Contains(body, `"} 1`) || !strings.Contains(body, "hraft_build_info{") {
		t.Fatalf("build info sample malformed:\n%s", body)
	}
}

// TestMetricsHandlerPeerStatus pins the per-peer introspection gauges: a
// source that exposes PeerStatus gets peer-labeled match/next/srtt/state
// series with their own metadata.
func TestMetricsHandlerPeerStatus(t *testing.T) {
	src := staticPeers{
		staticMetrics: staticMetrics{"replica.snapshot_chunks_sent": 1},
		peers: []PeerStatus{
			{ID: "n2", State: "replicate", Match: 10, Next: 12,
				SRTT: 5 * time.Millisecond, RTTVar: time.Millisecond,
				InflightBytes: 2048, InflightMsgs: 2},
			{ID: "n3", State: "snapshot", Match: 3, Next: 4},
		},
	}
	rec := httptest.NewRecorder()
	MetricsHandler("n1", src).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE hraft_peer_match_index gauge",
		`hraft_peer_match_index{node="n1",peer="n2"} 10`,
		`hraft_peer_next_index{node="n1",peer="n2"} 12`,
		`hraft_peer_srtt_seconds{node="n1",peer="n2"} 0.005`,
		`hraft_peer_rttvar_seconds{node="n1",peer="n2"} 0.001`,
		`hraft_peer_inflight_bytes{node="n1",peer="n2"} 2048`,
		`hraft_peer_inflight_msgs{node="n1",peer="n2"} 2`,
		`hraft_peer_state{node="n1",peer="n2",state="replicate"} 1`,
		`hraft_peer_state{node="n1",peer="n3",state="snapshot"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestMetricsFastTrackCounters pins the fast-track counters on a live node:
// they (and the read-path counters registered the same way) are in
// Metrics() from the start, move with commits, reach the Prometheus
// exposition, and feed the fast-track ratio of /debug/hraft/top.
func TestMetricsFastTrackCounters(t *testing.T) {
	net := NewInProcNetwork(1)
	defer net.Close()
	node, err := NewNode(Options{
		ID:                 "n1",
		Peers:              []NodeID{"n1"},
		Transport:          net.Endpoint("n1"),
		HeartbeatInterval:  10 * time.Millisecond,
		ElectionTimeoutMin: 40 * time.Millisecond,
		ElectionTimeoutMax: 80 * time.Millisecond,
		Seed:               1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	names := []string{
		"fastraft.commits_fast", "fastraft.commits_classic",
		"fastraft.decisions_on_arrival", "fastraft.decisions_on_tick", "fastraft.decisions_deferred",
		"fastraft.commits_notified", "fastraft.notify_ahead", "fastraft.notify_mismatch",
		"readpath.follower_held", "readpath.forward_requests",
	}
	m := node.Metrics()
	for _, name := range names {
		if _, ok := m[name]; !ok {
			t.Fatalf("Metrics() lacks %q before any commit", name)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for node.DebugTop().Groups[0].Role != "leader" {
		if ctx.Err() != nil {
			t.Fatal("no leader")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := node.Propose(ctx, []byte("x")); err != nil {
		t.Fatal(err)
	}
	m = node.Metrics()
	// The election's no-op rides the classic track; the proposal is its own
	// fast quorum, but with one member nothing ever arrives, so it is decided
	// at the heartbeat and committed there on the fast track.
	if m["fastraft.commits_classic"] != 1 || m["fastraft.commits_fast"] != 1 ||
		m["fastraft.decisions_on_arrival"] != 0 || m["fastraft.decisions_on_tick"] != 1 ||
		m["fastraft.decisions_deferred"] != 0 {
		t.Fatalf("counters after one proposal = %v", m)
	}
	rec := httptest.NewRecorder()
	MetricsHandler("n1", node).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, name := range names {
		want := "hraft_" + strings.ReplaceAll(name, ".", "_") + `{node="n1"} `
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
	if g := node.DebugTop().Groups[0]; g.CommitsFast != 1 || g.CommitsClassic != 1 {
		t.Fatalf("top commits fast/classic = %d/%d, want 1/1", g.CommitsFast, g.CommitsClassic)
	}
}

// TestMetricsCRaftForwardRequests pins readpath.forward_requests and
// fastraft.decisions_deferred on a C-Raft site: present under "local." from
// the first scrape and under "global." once the site runs the global
// instance, and on the Prometheus exposition. craft.commit_ships, the
// site's own counter, is there from the first scrape too.
func TestMetricsCRaftForwardRequests(t *testing.T) {
	net := NewInProcNetwork(1)
	defer net.Close()
	node, err := NewCRaftNode(CRaftOptions{
		ID:              "a1",
		Cluster:         "cA",
		ClusterPeers:    []NodeID{"a1"},
		GlobalClusters:  []NodeID{"cA"},
		Transport:       net.Endpoint("a1"),
		LocalHeartbeat:  10 * time.Millisecond,
		GlobalHeartbeat: 10 * time.Millisecond,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	local := []string{"local.readpath.forward_requests", "local.fastraft.decisions_deferred", "craft.commit_ships"}
	global := []string{"global.readpath.forward_requests", "global.fastraft.decisions_deferred"}
	for _, name := range local {
		if _, ok := node.Metrics()[name]; !ok {
			t.Fatalf("Metrics() lacks %q before any read", name)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, name := range global {
		for {
			if _, ok := node.Metrics()[name]; ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("Metrics() never gained %q", name)
			}
			time.Sleep(time.Millisecond)
		}
	}
	rec := httptest.NewRecorder()
	MetricsHandler("a1", node).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, name := range append(local, global...) {
		want := "hraft_" + strings.ReplaceAll(name, ".", "_") + `{node="a1"} `
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}
