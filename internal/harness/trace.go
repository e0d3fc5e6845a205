package harness

import (
	"os"
	"path/filepath"
	"strings"

	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// Flight-recorder integration: with Options.Trace (or CraftOptions.Trace)
// set, every node records protocol events into its own ring; the helpers
// here merge the rings into one time-ordered, cluster-wide narrative and
// dump it when a test fails — the post-mortem for a failed failover or a
// stuck proposal, without re-running under a debugger.

// TraceSnapshot returns node id's retained flight-recorder events (nil if
// tracing is off, the node is unknown, or it records per group as a shard
// process does). Works on crashed nodes too: the recorder outlives the
// machine. A C-Raft site's local and global layers interleave in one ring.
func (s *sim[M]) TraceSnapshot(id types.NodeID) []trace.Event {
	n := s.nodes[id]
	if n == nil {
		return nil
	}
	return n.rec.Snapshot()
}

// MergedTrace combines every recorder's ring (alive and crashed nodes
// alike) into one sequence ordered by simulated time.
func (s *sim[M]) MergedTrace() []trace.Event {
	var snaps [][]trace.Event
	for _, rec := range s.recs {
		if snap := rec.Snapshot(); len(snap) > 0 {
			snaps = append(snaps, snap)
		}
	}
	return trace.Merge(snaps...)
}

// TB is the subset of *testing.T the trace dumper needs (an interface so
// this package, which is also linked into the simulator and benchmark
// binaries, does not import "testing").
type TB interface {
	Cleanup(func())
	Failed() bool
	Logf(format string, args ...any)
	Name() string
}

// TraceSource is anything producing a merged cluster trace: Cluster,
// CraftCluster and ShardCluster all qualify.
type TraceSource interface {
	MergedTrace() []trace.Event
}

// DumpTraceOnFailure registers a cleanup hook that, if the test failed,
// logs the cluster's merged, time-ordered event dump — every node's
// elections, appends, snapshot streams and proposal stages interleaved.
// With HRAFT_TRACE_DIR set, the dump is also written to
// $HRAFT_TRACE_DIR/<test-name>.trace for artifact collection in CI, plus a
// machine-readable <test-name>.trace.jsonl twin that hraft-audit can
// replay offline.
func DumpTraceOnFailure(t TB, src TraceSource) {
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		events := src.MergedTrace()
		if len(events) == 0 {
			t.Logf("harness: no trace events recorded (Options.Trace off?)")
			return
		}
		dump := trace.Format(events)
		t.Logf("cluster flight-recorder dump (%d events, merged, time-ordered):\n%s",
			len(events), dump)
		if dir := os.Getenv("HRAFT_TRACE_DIR"); dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Logf("harness: create trace dir: %v", err)
				return
			}
			path := filepath.Join(dir, sanitizeTestName(t.Name())+".trace")
			if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
				t.Logf("harness: write trace dump: %v", err)
				return
			}
			t.Logf("harness: trace dump written to %s", path)
			jsonl, err := trace.FormatJSONL(events)
			if err != nil {
				t.Logf("harness: encode trace dump: %v", err)
				return
			}
			if err := os.WriteFile(path+".jsonl", jsonl, 0o644); err != nil {
				t.Logf("harness: write trace dump: %v", err)
			}
		}
	})
}

// sanitizeTestName maps a test name (possibly a subtest path with slashes)
// onto a safe file name.
func sanitizeTestName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, name)
}
