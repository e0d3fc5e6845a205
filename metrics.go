package hraft

import (
	"expvar"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/hraft-io/hraft/internal/audit"
)

// publishMu serializes the check-then-publish pair below; expvar itself
// panics on duplicate names, which is exactly what the error return is
// promising to prevent.
var publishMu sync.Mutex

// MetricSource is anything exposing a monotonic counter snapshot:
// Node, RaftNode, CRaftNode and ShardNode all qualify.
type MetricSource interface {
	// Metrics returns the current counter values by name.
	Metrics() map[string]uint64
}

// PublishExpvar registers src's counters under name in the process-wide
// expvar registry, so the standard /debug/vars endpoint (and anything that
// scrapes it) sees live consensus metrics: snapshot chunks sent and
// re-sent, appends throttled by flow control, pending-install rounds,
// queued proposals, and so on. The snapshot is taken on every read.
//
// expvar names are process-global; publishing a taken name returns an
// error instead of panicking (expvar.Publish would panic), so embedding
// applications can pick per-node names like "hraft.n1".
func PublishExpvar(name string, src MetricSource) error {
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) != nil {
		return fmt.Errorf("hraft: expvar name %q already published", name)
	}
	expvar.Publish(name, expvar.Func(func() any {
		return src.Metrics()
	}))
	return nil
}

// PeerStatusSource is optionally implemented by metric sources that also
// expose per-peer replication progress (Node, RaftNode and CRaftNode all
// do); MetricsHandler then renders peer-labeled gauges alongside the
// counters.
type PeerStatusSource interface {
	// PeerStatus snapshots the replication progress of every tracked peer
	// (empty unless the node currently leads).
	PeerStatus() []PeerStatus
}

// metricFamily accumulates one exposition family: its TYPE, HELP and
// sample lines, emitted together under a single header.
type metricFamily struct {
	typ   string
	help  string
	lines []string
}

// MetricsHandler returns an http.Handler rendering src's metrics in the
// Prometheus text exposition format. Every metric is prefixed "hraft_",
// labeled with the node name, and preceded by # HELP / # TYPE metadata;
// histogram keys emitted by the cores ("<base>.le.<bound>", "<base>.count",
// "<base>.sum_us") become proper _bucket{le=...}/_count/_sum series with le
// and the sum both in seconds (the unit Prometheus tooling like
// histogram_quantile expects) and buckets in ascending le order, counters
// and gauges plain samples. The online safety auditor's
// "audit.violations.<invariant>" counters collapse into one
// invariant-labeled hraft_audit_violations family (alert on it being
// nonzero). When src also implements PeerStatusSource, per-peer
// replication gauges (hraft_peer_*{node,peer}) ride along, and every
// scrape includes process-level context: hraft_build_info, uptime,
// goroutine count and heap gauges. Keys are sanitized (non-alphanumerics
// to underscores) and families emitted in sorted order so scrapes are
// diff-stable.
func MetricsHandler(node string, src MetricSource) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fams := make(map[string]*metricFamily)
		family := func(name, typ, help string) *metricFamily {
			f, ok := fams[name]
			if !ok {
				f = &metricFamily{typ: typ, help: help}
				fams[name] = f
			}
			return f
		}
		type bucket struct {
			le   float64
			line string
		}
		buckets := make(map[string][]bucket)
		m := src.Metrics()
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v := m[k]
			switch {
			case strings.Contains(k, ".le."):
				base, bound, _ := strings.Cut(k, ".le.")
				name := "hraft_" + sanitizeMetric(base) + "_seconds"
				le, leNum := "+Inf", math.Inf(1)
				if bound != "inf" {
					// Bounds are Go duration strings ("5ms", "2.5s");
					// Prometheus requires le to parse as a float, in seconds.
					d, err := time.ParseDuration(bound)
					if err != nil {
						continue // unrenderable bucket; drop rather than lie
					}
					leNum = d.Seconds()
					le = strconv.FormatFloat(leNum, 'g', -1, 64)
				}
				family(name, "histogram", histogramHelp(base))
				buckets[name] = append(buckets[name], bucket{le: leNum, line: fmt.Sprintf(
					"%s_bucket{node=%q,le=%q} %d", name, node, le, v)})
			case strings.HasSuffix(k, ".count"):
				base := strings.TrimSuffix(k, ".count")
				name := "hraft_" + sanitizeMetric(base) + "_seconds"
				f := family(name, "histogram", histogramHelp(base))
				f.lines = append(f.lines, fmt.Sprintf("%s_count{node=%q} %d", name, node, v))
			case strings.HasSuffix(k, ".sum_us"):
				base := strings.TrimSuffix(k, ".sum_us")
				name := "hraft_" + sanitizeMetric(base) + "_seconds"
				f := family(name, "histogram", histogramHelp(base))
				f.lines = append(f.lines, fmt.Sprintf("%s_sum{node=%q} %s", name, node,
					strconv.FormatFloat(float64(v)/1e6, 'g', -1, 64)))
			case strings.HasPrefix(k, audit.MetricPrefix):
				// The online safety auditor's per-invariant violation
				// counters become one labeled family, so a single alert rule
				// (hraft_audit_violations > 0) covers every invariant.
				f := family("hraft_audit_violations", "counter",
					"Consensus-invariant violations detected by the online safety auditor.")
				f.lines = append(f.lines, fmt.Sprintf(
					"hraft_audit_violations{node=%q,invariant=%q} %d",
					node, strings.TrimPrefix(k, audit.MetricPrefix), v))
			case strings.Contains(k, "gauge."):
				// "gauge." prefixed keys (possibly under a C-Raft "local."/
				// "global." section) are point-in-time values.
				name := "hraft_" + sanitizeMetric(k)
				f := family(name, "gauge", "Point-in-time value of "+k+".")
				f.lines = append(f.lines, fmt.Sprintf("%s{node=%q} %d", name, node, v))
			default:
				name := "hraft_" + sanitizeMetric(k)
				f := family(name, "counter", "Monotonic count of "+k+" events.")
				f.lines = append(f.lines, fmt.Sprintf("%s{node=%q} %d", name, node, v))
			}
		}
		// Histogram buckets must appear in ascending le order regardless of
		// how their flat keys sort lexically ("10ms" < "5ms").
		for name, bs := range buckets {
			sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
			f := fams[name]
			lines := make([]string, 0, len(bs)+len(f.lines))
			for _, b := range bs {
				lines = append(lines, b.line)
			}
			f.lines = append(lines, f.lines...)
		}
		if ps, ok := src.(PeerStatusSource); ok {
			appendPeerFamilies(fams, node, ps.PeerStatus())
		}
		appendRuntimeFamilies(fams, node)
		names := make([]string, 0, len(fams))
		for name := range fams {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			f := fams[name]
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, f.help, name, f.typ)
			for _, line := range f.lines {
				b.WriteString(line)
				b.WriteByte('\n')
			}
		}
		_, _ = w.Write([]byte(b.String()))
	})
}

// histogramHelp describes a latency histogram family.
func histogramHelp(base string) string {
	return "Latency histogram " + base + " (seconds)."
}

// appendPeerFamilies renders the leader's per-peer replication progress as
// peer-labeled gauges: progress state, match/next indices, srtt/rttvar and
// inflight window occupancy.
func appendPeerFamilies(fams map[string]*metricFamily, node string, peers []PeerStatus) {
	if len(peers) == 0 {
		return
	}
	add := func(name, help string, line string) {
		f, ok := fams[name]
		if !ok {
			f = &metricFamily{typ: "gauge", help: help}
			fams[name] = f
		}
		f.lines = append(f.lines, line)
	}
	for _, p := range peers {
		add("hraft_peer_match_index", "Highest log index known replicated on the peer.",
			fmt.Sprintf("hraft_peer_match_index{node=%q,peer=%q} %d", node, p.ID, p.Match))
		add("hraft_peer_next_index", "Next log index to send to the peer.",
			fmt.Sprintf("hraft_peer_next_index{node=%q,peer=%q} %d", node, p.ID, p.Next))
		add("hraft_peer_srtt_seconds", "Smoothed acknowledgment round-trip estimate for the peer.",
			fmt.Sprintf("hraft_peer_srtt_seconds{node=%q,peer=%q} %s", node, p.ID,
				strconv.FormatFloat(p.SRTT.Seconds(), 'g', -1, 64)))
		add("hraft_peer_rttvar_seconds", "Round-trip variance estimate for the peer.",
			fmt.Sprintf("hraft_peer_rttvar_seconds{node=%q,peer=%q} %s", node, p.ID,
				strconv.FormatFloat(p.RTTVar.Seconds(), 'g', -1, 64)))
		add("hraft_peer_inflight_bytes", "Encoded entry bytes outstanding to the peer.",
			fmt.Sprintf("hraft_peer_inflight_bytes{node=%q,peer=%q} %d", node, p.ID, p.InflightBytes))
		add("hraft_peer_inflight_msgs", "Append messages outstanding to the peer.",
			fmt.Sprintf("hraft_peer_inflight_msgs{node=%q,peer=%q} %d", node, p.ID, p.InflightMsgs))
		add("hraft_peer_state", "Replication state of the peer (1 = the labeled state).",
			fmt.Sprintf("hraft_peer_state{node=%q,peer=%q,state=%q} 1", node, p.ID, p.State))
	}
}

// processStart anchors hraft_process_uptime_seconds.
var processStart = time.Now()

// moduleVersion is the hraft module version baked into the binary
// ("(devel)" for source builds, "unknown" without build info).
var moduleVersion = func() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}()

// appendRuntimeFamilies adds the process-level context every consensus
// dashboard ends up needing next to the protocol counters: what build is
// running, for how long, and whether the process itself (goroutines,
// heap) — rather than the protocol — is the thing misbehaving.
func appendRuntimeFamilies(fams map[string]*metricFamily, node string) {
	add := func(name, typ, help, line string) {
		f, ok := fams[name]
		if !ok {
			f = &metricFamily{typ: typ, help: help}
			fams[name] = f
		}
		f.lines = append(f.lines, line)
	}
	add("hraft_build_info", "gauge",
		"Build metadata; the value is always 1.",
		fmt.Sprintf("hraft_build_info{node=%q,go_version=%q,version=%q} 1",
			node, runtime.Version(), moduleVersion))
	add("hraft_process_uptime_seconds", "gauge",
		"Seconds since this process's metrics surface was initialized.",
		fmt.Sprintf("hraft_process_uptime_seconds{node=%q} %s", node,
			strconv.FormatFloat(time.Since(processStart).Seconds(), 'g', -1, 64)))
	add("hraft_goroutines", "gauge",
		"Live goroutines in the process.",
		fmt.Sprintf("hraft_goroutines{node=%q} %d", node, runtime.NumGoroutine()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	add("hraft_heap_alloc_bytes", "gauge",
		"Bytes of allocated, still-reachable heap objects.",
		fmt.Sprintf("hraft_heap_alloc_bytes{node=%q} %d", node, ms.HeapAlloc))
	add("hraft_heap_sys_bytes", "gauge",
		"Heap bytes obtained from the OS.",
		fmt.Sprintf("hraft_heap_sys_bytes{node=%q} %d", node, ms.HeapSys))
	add("hraft_heap_objects", "gauge",
		"Live heap objects.",
		fmt.Sprintf("hraft_heap_objects{node=%q} %d", node, ms.HeapObjects))
	add("hraft_gc_cycles_total", "counter",
		"Completed garbage-collection cycles.",
		fmt.Sprintf("hraft_gc_cycles_total{node=%q} %d", node, ms.NumGC))
}

// sanitizeMetric maps a counter key onto the Prometheus metric-name
// alphabet.
func sanitizeMetric(k string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, k)
}

// ServeMetrics serves src's metrics at http://addr/metrics in the
// Prometheus text format (see MetricsHandler) on a background goroutine.
// It returns the bound listener address (useful with a ":0" addr) and a
// shutdown func. The endpoint snapshots metrics per scrape; it holds the
// node's event loop only as long as one Metrics() call.
func ServeMetrics(addr, node string, src MetricSource) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("hraft: metrics listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(node, src))
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
