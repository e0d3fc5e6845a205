package hraft

import (
	"encoding/json"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/hraft-io/hraft/internal/audit"
	"github.com/hraft-io/hraft/internal/stats"
	"github.com/hraft-io/hraft/internal/trace"
)

// Flight-recorder tracing and the HTTP debug surface.
//
// With Options.Trace (or CRaftOptions.Trace) set, a node records typed
// protocol events — role transitions, election rounds, per-peer append
// dispatch and acknowledgment, snapshot stream progress, read batches,
// session lifecycle, C-Raft batching hops — into a fixed-size in-memory
// ring, and stamps every proposal's propose→append→replicate→quorum→
// commit→apply stages into hist.stage_* latency histograms (visible in
// Metrics and the Prometheus endpoint). Proposals slower than
// TraceOptions.SlowOp are reported through log/slog with the exact
// proposal, term, index, peer set and per-stage breakdown.
//
// The ring is retrieved with Node.Recorder (TraceRecorder.Snapshot/Tail),
// merged across nodes with MergeTraces, rendered with FormatTrace, and
// served over HTTP with DebugHandler/ServeDebug. A nil recorder disables
// everything: the record paths compile down to a nil check.

// TraceOptions configures the protocol flight recorder (see Options.Trace).
type TraceOptions struct {
	// Size is the event ring capacity (0 = 4096 events, several election
	// cycles of a busy five-node cluster).
	Size int
	// SlowOp, when non-zero, logs any proposal whose propose→apply time
	// meets the threshold, naming the proposal ID, term, commit index,
	// peer set and per-stage latency breakdown.
	SlowOp time.Duration
	// Logger receives slow-op reports (nil = slog.Default()).
	Logger *slog.Logger
	// SampleRate enables wire-propagated causal tracing: every
	// SampleRate-th proposal or read minted on this node gets a TraceID
	// that rides the wire (entries, reads, snapshot chunks) and is
	// recorded as hop events on every node it touches — assemble the
	// cross-node trees with AssembleTraces, /debug/hraft/trace?trace=<id>
	// or cmd/hraft-trace. 0 disables sampling (the default: zero trace
	// bytes on the wire, encode paths unchanged); 1 samples everything.
	SampleRate int
}

// TraceEvent is one recorded protocol event: monotonic sequence number,
// node-clock timestamp, node label, event type and type-specific fields.
type TraceEvent = trace.Event

// TraceRecorder is a node's flight recorder. Snapshot() and Tail(k) copy
// the retained ring (oldest first) and are safe from any goroutine.
type TraceRecorder = trace.Recorder

// newRecorder builds the internal recorder from public options, with the
// streaming safety auditor attached to its event stream (nil options =
// recording disabled = nil recorder and auditor).
func newRecorder(id NodeID, o *TraceOptions) (*trace.Recorder, *audit.Auditor) {
	if o == nil {
		return nil, nil
	}
	rec := trace.New(trace.Config{
		Node:       string(id),
		Size:       o.Size,
		SlowOp:     o.SlowOp,
		Logger:     o.Logger,
		SampleRate: o.SampleRate,
	})
	aud := audit.New(audit.Options{})
	aud.AttachTo(rec)
	return rec, aud
}

// AuditReport is a point-in-time summary of the node's online safety
// auditor: whether any consensus invariant (election safety, committed
// prefix agreement, watermark monotonicity, lease disjointness, session
// exactly-once) was violated, with per-invariant counters and the
// violating event windows. Served as JSON at /debug/hraft/audit; the
// counters also surface in Metrics as audit.violations.<invariant>.
type AuditReport = audit.Report

// AuditViolation is one invariant breach in an AuditReport.
type AuditViolation = audit.Violation

// MergeTraces combines ring snapshots from several nodes into one
// time-ordered sequence (ties broken by node label, then sequence
// number) — the cluster-wide view of an election or failover.
func MergeTraces(snapshots ...[]TraceEvent) []TraceEvent {
	return trace.Merge(snapshots...)
}

// TraceTree is one sampled operation's assembled cross-node journey: the
// causally ordered spans a wire-propagated TraceID left on every node it
// touched (see TraceOptions.SampleRate and AssembleTraces).
type TraceTree = trace.TraceTree

// TraceSpan is one node of a TraceTree: a trace-stamped event plus the
// latency gap since its causal parent.
type TraceSpan = trace.TraceSpan

// AssembleTraces groups merged events by trace ID and builds one causally
// ordered tree per sampled operation — propose, forward, append,
// replicate, acks, commit, apply across every node, with per-hop
// latencies. Feed it MergeTraces output (or a single ring snapshot for a
// one-node view).
func AssembleTraces(events []TraceEvent) []*TraceTree {
	return trace.AssembleTraces(events)
}

// FormatTraceTrees renders assembled traces as indented per-hop latency
// breakdowns, one block per trace.
func FormatTraceTrees(trees []*TraceTree) string { return trace.FormatTrees(trees) }

// RollingStats is a sliding-window rate/latency aggregate over roughly
// the last 16 seconds — the live complement of the cumulative hist.*
// metrics, served per consensus group in DebugTop.
type RollingStats = stats.RollingSnapshot

// FormatTrace renders events one per line: timestamp, node label, event
// type, details.
func FormatTrace(events []TraceEvent) string { return trace.Format(events) }

// DebugPeer is one peer's replication progress in DebugStatus.
type DebugPeer struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Match    uint64 `json:"match"`
	Next     uint64 `json:"next"`
	SRTT     string `json:"srtt,omitempty"`
	Inflight int    `json:"inflight_msgs"`
}

// DebugStatus is the document served as JSON at /debug/hraft/status:
// role, term and leader view, commit progress, the leader's per-peer
// replication state, the read-lease expiry and the newest flight-recorder
// events.
type DebugStatus struct {
	Node        string      `json:"node"`
	Role        string      `json:"role"`
	Term        uint64      `json:"term"`
	Leader      string      `json:"leader,omitempty"`
	CommitIndex uint64      `json:"commit_index"`
	Peers       []DebugPeer `json:"peers,omitempty"`
	// LeaseUntil is the read-lease expiry on the node's monotonic clock
	// (empty = no lease held).
	LeaseUntil string `json:"lease_until,omitempty"`

	// C-Raft only: the global (inter-cluster) layer.
	Cluster           string      `json:"cluster,omitempty"`
	GlobalRole        string      `json:"global_role,omitempty"`
	GlobalTerm        uint64      `json:"global_term,omitempty"`
	GlobalCommitIndex uint64      `json:"global_commit_index,omitempty"`
	GlobalPeers       []DebugPeer `json:"global_peers,omitempty"`

	// Trace is the newest retained flight-recorder events, oldest first
	// (empty when tracing is disabled).
	Trace []TraceEvent `json:"trace,omitempty"`
}

// debugPeers converts internal peer progress to the JSON shape.
func debugPeers(ps []PeerStatus) []DebugPeer {
	out := make([]DebugPeer, 0, len(ps))
	for _, p := range ps {
		dp := DebugPeer{
			ID:       string(p.ID),
			State:    p.State,
			Match:    uint64(p.Match),
			Next:     uint64(p.Next),
			Inflight: p.InflightMsgs,
		}
		if p.SRTT > 0 {
			dp.SRTT = p.SRTT.String()
		}
		out = append(out, dp)
	}
	return out
}

// consensusView is the consensus state every debug row starts from: a
// Fast Raft core, a C-Raft site's local instance, a shard manager's first
// group.
type consensusView interface {
	ID() NodeID
	Role() Role
	Term() Term
	LeaderID() NodeID
	CommitIndex() Index
}

// groupView is one consensus group as a DebugTop row shows it.
type groupView interface {
	consensusView
	LastIndex() Index
	TrackCommits() (fast, classic uint64)
	Recorder() *trace.Recorder
}

// statusRow is the consensus part of a DebugStatus. Call it under the
// host lock, like topRow.
func statusRow(c consensusView) DebugStatus {
	return DebugStatus{
		Node:        string(c.ID()),
		Role:        c.Role().String(),
		Term:        uint64(c.Term()),
		Leader:      string(c.LeaderID()),
		CommitIndex: uint64(c.CommitIndex()),
	}
}

// topRow is group's DebugTop row for core c, with the sliding window c's
// recorder keeps under key.
func topRow(c groupView, group, key string, now time.Duration) DebugTopGroup {
	g := DebugTopGroup{
		Group:       group,
		Role:        c.Role().String(),
		Term:        uint64(c.Term()),
		Leader:      string(c.LeaderID()),
		CommitIndex: uint64(c.CommitIndex()),
		LastIndex:   uint64(c.LastIndex()),
		Proposals:   pickLive(c.Recorder().LiveStats(now), key),
	}
	g.CommitLag = g.LastIndex - g.CommitIndex
	g.CommitsFast, g.CommitsClassic = c.TrackCommits()
	return g
}

// DebugStatus snapshots the node's debug state; traceTail bounds the
// flight-recorder events included (0 = none).
func (n *site) DebugStatus(traceTail int) DebugStatus { return n.debugStatus(traceTail, nil) }

// DebugStatus snapshots the site's debug state across both consensus
// layers; traceTail bounds the flight-recorder events included (0 =
// none). The trace interleaves local and global events (the layers share
// one ring).
func (n *CRaftNode) DebugStatus(traceTail int) DebugStatus {
	return n.debugStatus(traceTail, func(s *DebugStatus) {
		s.Cluster = string(n.m.ClusterID())
		if n.m.IsGlobalMember() {
			s.GlobalRole = n.m.GlobalRole().String()
			s.GlobalPeers = debugPeers(n.m.GlobalPeerStatus())
		}
		s.GlobalTerm = uint64(n.m.GlobalTerm())
		s.GlobalCommitIndex = uint64(n.m.GlobalCommitIndex())
	})
}

// DebugString renders a diagnostic summary of a C-Raft node's state.
func (n *CRaftNode) DebugString() string {
	var s string
	n.host.Do(func(time.Duration) { s = n.m.DebugString() })
	return s
}

// StatusSource is anything serving a DebugStatus; Node, RaftNode,
// CRaftNode and ShardNode all qualify.
type StatusSource interface {
	// DebugStatus snapshots the node's debug state with up to traceTail
	// flight-recorder events.
	DebugStatus(traceTail int) DebugStatus
}

// defaultTraceTail is the status endpoint's default ?trace= value.
const defaultTraceTail = 64

// DebugOption customizes the debug surface built by DebugHandler,
// NewDebugMux and ServeDebug.
type DebugOption func(*debugConfig)

type debugConfig struct {
	peers   map[string]string
	timeout time.Duration
}

// WithPeers enables the /debug/hraft/cluster endpoint: a cluster-wide
// status roll-up assembled by fetching every listed peer's
// /debug/hraft/status. Keys are node IDs, values the base URL of that
// peer's debug server ("host:port" or "http://host:port" — the
// /debug/hraft path is appended). The serving node's own status is
// always included; list only the other nodes.
func WithPeers(peers map[string]string) DebugOption {
	return func(c *debugConfig) { c.peers = peers }
}

// WithPeerTimeout bounds each peer status fetch for
// /debug/hraft/cluster (default 2s). Unreachable peers are reported,
// not fatal.
func WithPeerTimeout(d time.Duration) DebugOption {
	return func(c *debugConfig) { c.timeout = d }
}

// DebugHandler returns an http.Handler exposing a node's debug surface:
//
//	/debug/hraft/status   consensus state as DebugStatus JSON; ?trace=N
//	                      sets the flight-recorder tail length (default
//	                      64, 0 disables)
//	/debug/hraft/trace    the full retained flight-recorder ring as text
//	                      (one event per line, oldest first);
//	                      ?format=json serves the machine-readable shape
//	                      hraft-audit replays
//	/debug/hraft/audit    the online safety auditor's report as JSON
//	                      (AuditReport)
//	/debug/hraft/shards   sharded nodes only: every live group's range,
//	                      role, term and commit progress (GroupStatus)
//	/debug/hraft/cluster  with WithPeers: every peer's status fetched and
//	                      aggregated — leader agreement, commit spread,
//	                      per-peer lag (DebugCluster)
//	/debug/pprof/...      the standard Go runtime profiles
//
// Mount it next to MetricsHandler (or use ServeDebug, which mounts both).
func DebugHandler(src StatusSource, opts ...DebugOption) http.Handler {
	cfg := debugConfig{timeout: 2 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/hraft/status", func(w http.ResponseWriter, r *http.Request) {
		tail := defaultTraceTail
		if v := r.URL.Query().Get("trace"); v != "" {
			t, err := strconv.Atoi(v)
			if err != nil || t < 0 {
				http.Error(w, "trace must be a non-negative integer", http.StatusBadRequest)
				return
			}
			tail = t
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(src.DebugStatus(tail))
	})
	mux.HandleFunc("/debug/hraft/trace", func(w http.ResponseWriter, r *http.Request) {
		var rec *TraceRecorder
		if rs, ok := src.(interface{ Recorder() *TraceRecorder }); ok {
			rec = rs.Recorder()
		}
		if v := r.URL.Query().Get("trace"); v != "" {
			// One sampled trace, assembled into its causal tree.
			id, err := strconv.ParseUint(v, 16, 64)
			if err != nil || id == 0 {
				http.Error(w, "trace must be a non-zero hex trace ID", http.StatusBadRequest)
				return
			}
			for _, t := range AssembleTraces(rec.Snapshot()) {
				if t.ID == id {
					w.Header().Set("Content-Type", "application/json")
					enc := json.NewEncoder(w)
					enc.SetIndent("", "  ")
					_ = enc.Encode(t)
					return
				}
			}
			http.Error(w, "no events for that trace ID in the retained ring", http.StatusNotFound)
			return
		}
		if v := r.URL.Query().Get("since"); v != "" {
			// Incremental cursor: events with Seq >= since, plus how many
			// the ring overwrote past the cursor. Pollers resume at next.
			since, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "since must be a non-negative integer sequence number", http.StatusBadRequest)
				return
			}
			events, dropped := rec.SnapshotSince(since)
			next := since + dropped + uint64(len(events))
			if events == nil {
				events = []TraceEvent{}
			}
			doc := struct {
				Node    string       `json:"node"`
				Since   uint64       `json:"since"`
				Next    uint64       `json:"next"`
				Dropped uint64       `json:"dropped"`
				Events  []TraceEvent `json:"events"`
			}{rec.Label(), since, next, dropped, events}
			data, err := json.Marshal(doc)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(data)
			return
		}
		events := rec.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			if events == nil {
				events = []TraceEvent{}
			}
			doc := struct {
				Node   string       `json:"node"`
				Events []TraceEvent `json:"events"`
			}{rec.Label(), events}
			// Compact (single-line) JSON: the wrapper shape
			// trace.ParseEvents — and so hraft-audit — reads back.
			data, err := json.Marshal(doc)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(data)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if len(events) == 0 {
			_, _ = w.Write([]byte("(tracing disabled or no events)\n"))
			return
		}
		_, _ = w.Write([]byte(FormatTrace(events)))
	})
	mux.HandleFunc("/debug/hraft/audit", func(w http.ResponseWriter, _ *http.Request) {
		ar, ok := src.(interface{ AuditReport() AuditReport })
		if !ok {
			http.Error(w, "audit report not supported by this node type", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(ar.AuditReport())
	})
	mux.HandleFunc("/debug/hraft/shards", func(w http.ResponseWriter, _ *http.Request) {
		ss, ok := src.(interface{ ShardStatus() []GroupStatus })
		if !ok {
			http.Error(w, "not a sharded node", http.StatusNotFound)
			return
		}
		groups := ss.ShardStatus()
		if groups == nil {
			groups = []GroupStatus{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Groups []GroupStatus `json:"groups"`
		}{groups})
	})
	mux.HandleFunc("/debug/hraft/cluster", func(w http.ResponseWriter, _ *http.Request) {
		if len(cfg.peers) == 0 {
			http.Error(w, "no peers configured (start with WithPeers)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(clusterStatus(src, cfg))
	})
	mux.HandleFunc("/debug/hraft/top", func(w http.ResponseWriter, _ *http.Request) {
		ts, ok := src.(interface{ DebugTop() DebugTop })
		if !ok {
			http.Error(w, "live stats not supported by this node type", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(ts.DebugTop())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugTopGroup is one consensus group's row in DebugTop: the group's
// consensus view plus its sliding-window proposal aggregates.
type DebugTopGroup struct {
	// Group names the consensus group (empty for single-group nodes).
	Group       string `json:"group,omitempty"`
	Role        string `json:"role"`
	Term        uint64 `json:"term"`
	Leader      string `json:"leader,omitempty"`
	CommitIndex uint64 `json:"commit_index"`
	LastIndex   uint64 `json:"last_index"`
	// CommitLag is LastIndex minus CommitIndex: appended-but-uncommitted
	// depth, the first thing to climb when replication stalls.
	CommitLag uint64 `json:"commit_lag"`
	// Proposals is the group's propose→apply window: rate plus p50/p99
	// over roughly the last 16 seconds.
	Proposals RollingStats `json:"proposals"`
	// CommitsFast and CommitsClassic count this node's commits as the
	// group's leader by track (cumulative counters; both 0 on a node that
	// has led nothing, CommitsFast always 0 on a RaftNode). A poller turns
	// the deltas into the current fast-track share (hraft-top's FAST%): it
	// falls when proposers collide or votes are lost, and entries wait for
	// the heartbeat instead of committing on arrival.
	CommitsFast    uint64 `json:"commits_fast,omitempty"`
	CommitsClassic uint64 `json:"commits_classic,omitempty"`
}

// DebugTop is the document served as JSON at /debug/hraft/top: per-group
// live rate/latency aggregates plus process-wide durability stats — the
// one-poll shape cmd/hraft-top renders into a cluster console.
type DebugTop struct {
	Node   string          `json:"node"`
	Groups []DebugTopGroup `json:"groups"`
	// FsyncBatchAvg is the mean records-per-fsync since start (group
	// commit effectiveness; 0 = no fsyncs observed or async storage).
	FsyncBatchAvg float64 `json:"fsync_batch_avg,omitempty"`
	// TraceDropped counts flight-recorder events overwritten past a
	// /debug/hraft/trace?since= poller's cursor (cumulative).
	TraceDropped uint64 `json:"trace_events_dropped,omitempty"`
}

// pickLive selects the group's sliding-window snapshot from a recorder's
// LiveStats map: the exact group key when present, otherwise the busiest
// window (rings shared across derived labels aggregate under one key).
func pickLive(live map[string]RollingStats, group string) RollingStats {
	if s, ok := live[group]; ok {
		return s
	}
	keys := make([]string, 0, len(live))
	for k := range live {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var best RollingStats
	for _, k := range keys {
		if live[k].Count > best.Count {
			best = live[k]
		}
	}
	return best
}

// fillTopMetrics folds the cumulative metrics DebugTop surfaces (fsync
// batch effectiveness, trace-ring drop accounting) into the document.
func fillTopMetrics(t *DebugTop, m map[string]uint64) {
	var sum, count uint64
	for k, v := range m {
		switch {
		case strings.HasSuffix(k, "hist.fsync_batch_size.sum"):
			sum += v
		case strings.HasSuffix(k, "hist.fsync_batch_size.count"):
			count += v
		case strings.HasSuffix(k, "trace.events_dropped"):
			t.TraceDropped += v
		}
	}
	if count > 0 {
		t.FsyncBatchAvg = float64(sum) / float64(count)
	}
}

// DebugTop snapshots the node's live rate/latency aggregates (served at
// /debug/hraft/top). Safe from any goroutine.
func (n *site) DebugTop() DebugTop {
	var t DebugTop
	n.host.Do(func(now time.Duration) {
		t = DebugTop{Node: string(n.m.ID()), Groups: []DebugTopGroup{topRow(n.m, "", n.m.Recorder().Group(), now)}}
	})
	fillTopMetrics(&t, n.Metrics())
	return t
}

// DebugTop snapshots the site's live rate/latency aggregates across both
// consensus layers (served at /debug/hraft/top). Safe from any goroutine.
func (n *CRaftNode) DebugTop() DebugTop {
	var t DebugTop
	n.host.Do(func(now time.Duration) {
		t = DebugTop{Node: string(n.m.ID()), Groups: []DebugTopGroup{topRow(n.m, "local", "local", now)}}
		if n.m.IsGlobalMember() {
			t.Groups = append(t.Groups, DebugTopGroup{
				Group:       "global",
				Role:        n.m.GlobalRole().String(),
				Term:        uint64(n.m.GlobalTerm()),
				CommitIndex: uint64(n.m.GlobalCommitIndex()),
				// The replayed global log has no last-index view here; lag
				// stays 0 and LastIndex mirrors the commit point.
				LastIndex: uint64(n.m.GlobalCommitIndex()),
				Proposals: pickLive(n.m.Recorder().LiveStats(now), "global"),
			})
		}
	})
	m := n.Metrics()
	fillTopMetrics(&t, m)
	if len(t.Groups) > 1 {
		// Past global instances count too, so these come from Metrics.
		t.Groups[1].CommitsFast, t.Groups[1].CommitsClassic = m["global.fastraft.commits_fast"], m["global.fastraft.commits_classic"]
	}
	return t
}

// DebugClusterPeer is one node's row in the /debug/hraft/cluster
// roll-up: its own view of the consensus state, plus its lag behind the
// furthest-committed peer. Unreachable peers carry only Error.
type DebugClusterPeer struct {
	Node        string `json:"node"`
	URL         string `json:"url,omitempty"`
	Error       string `json:"error,omitempty"`
	Role        string `json:"role,omitempty"`
	Term        uint64 `json:"term,omitempty"`
	Leader      string `json:"leader,omitempty"`
	CommitIndex uint64 `json:"commit_index"`
	// Lag is the highest commit index seen across reachable peers minus
	// this peer's.
	Lag uint64 `json:"lag"`
}

// DebugCluster is the document served at /debug/hraft/cluster: every
// peer's status (the serving node first) and the cross-node aggregates a
// failover investigation reaches for — do the nodes agree on a leader,
// how far apart are their commit indexes, who lags.
type DebugCluster struct {
	Peers       []DebugClusterPeer `json:"peers"`
	Reachable   int                `json:"reachable"`
	Unreachable int                `json:"unreachable"`
	// Leaders lists every node currently claiming leadership (itself, not
	// hearsay). More than one entry is normal mid-election across terms;
	// the safety auditor checks the per-term invariant.
	Leaders []string `json:"leaders,omitempty"`
	// LeaderAgreement is true when every reachable peer names the same
	// non-empty leader.
	LeaderAgreement bool   `json:"leader_agreement"`
	MaxTerm         uint64 `json:"max_term"`
	// CommitSpread is max minus min commit index across reachable peers.
	CommitSpread uint64 `json:"commit_spread"`
}

// clusterStatus assembles the /debug/hraft/cluster document: the local
// status directly, every configured peer over HTTP (concurrently, each
// bounded by the configured timeout).
func clusterStatus(src StatusSource, cfg debugConfig) DebugCluster {
	local := src.DebugStatus(0)
	rows := make([]DebugClusterPeer, 1+len(cfg.peers))
	rows[0] = DebugClusterPeer{
		Node:        local.Node,
		Role:        local.Role,
		Term:        local.Term,
		Leader:      local.Leader,
		CommitIndex: local.CommitIndex,
	}
	ids := make([]string, 0, len(cfg.peers))
	for id := range cfg.peers {
		if id == local.Node {
			continue
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	client := &http.Client{Timeout: cfg.timeout}
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(row int, id, base string) {
			defer wg.Done()
			rows[row] = fetchPeerStatus(client, id, base)
		}(1+i, id, cfg.peers[id])
	}
	wg.Wait()
	rows = rows[:1+len(ids)]

	out := DebugCluster{Peers: rows, LeaderAgreement: true}
	var minCommit, maxCommit uint64
	first := true
	leaderView := ""
	for _, p := range rows {
		if p.Error != "" {
			out.Unreachable++
			continue
		}
		out.Reachable++
		if p.Role == "leader" {
			out.Leaders = append(out.Leaders, p.Node)
		}
		if p.Term > out.MaxTerm {
			out.MaxTerm = p.Term
		}
		if first {
			minCommit, maxCommit = p.CommitIndex, p.CommitIndex
			leaderView = p.Leader
			first = false
		} else {
			if p.CommitIndex < minCommit {
				minCommit = p.CommitIndex
			}
			if p.CommitIndex > maxCommit {
				maxCommit = p.CommitIndex
			}
			if p.Leader != leaderView {
				out.LeaderAgreement = false
			}
		}
	}
	if leaderView == "" || first {
		out.LeaderAgreement = false
	}
	out.CommitSpread = maxCommit - minCommit
	for i := range out.Peers {
		if out.Peers[i].Error == "" {
			out.Peers[i].Lag = maxCommit - out.Peers[i].CommitIndex
		}
	}
	return out
}

// fetchPeerStatus pulls one peer's /debug/hraft/status (trace suppressed)
// and reduces it to a roll-up row.
func fetchPeerStatus(client *http.Client, id, base string) DebugClusterPeer {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	url := strings.TrimSuffix(base, "/") + "/debug/hraft/status?trace=0"
	row := DebugClusterPeer{Node: id, URL: url}
	resp, err := client.Get(url)
	if err != nil {
		row.Error = err.Error()
		return row
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		row.Error = "status " + resp.Status
		return row
	}
	var s DebugStatus
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		row.Error = "decode: " + err.Error()
		return row
	}
	row.Role = s.Role
	row.Term = s.Term
	row.Leader = s.Leader
	row.CommitIndex = s.CommitIndex
	return row
}

// DebugSource is the combined surface ServeDebug mounts: Prometheus
// metrics plus the debug endpoints. Node, RaftNode, CRaftNode and
// ShardNode all qualify.
type DebugSource interface {
	MetricSource
	StatusSource
}

// ServeDebug serves the full observability surface on one address in a
// background goroutine: /metrics (Prometheus text format, see
// MetricsHandler), /debug/hraft/status, /debug/hraft/trace,
// /debug/hraft/audit, /debug/pprof and — with WithPeers —
// /debug/hraft/cluster. It returns the bound address (useful with ":0")
// and a shutdown func.
func ServeDebug(addr, node string, src DebugSource, opts ...DebugOption) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := NewDebugMux(node, src, opts...)
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}

// NewDebugMux builds the mux ServeDebug serves — /metrics plus the debug
// endpoints — for embedding into an existing HTTP server.
func NewDebugMux(node string, src DebugSource, opts ...DebugOption) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(node, src))
	mux.Handle("/debug/", DebugHandler(src, opts...))
	return mux
}
