// Command hraft-node runs a single Fast Raft site over UDP with
// file-backed stable storage — the deployment shape of the paper's
// experiments (one process per EC2 instance, UDP sockets).
//
// Start a three-node group on one machine:
//
//	hraft-node -id n1 -listen 127.0.0.1:7101 -peers n1=127.0.0.1:7101,n2=127.0.0.1:7102,n3=127.0.0.1:7103 -wal /tmp/n1.wal
//	hraft-node -id n2 -listen 127.0.0.1:7102 -peers ...            -wal /tmp/n2.wal
//	hraft-node -id n3 -listen 127.0.0.1:7103 -peers ...            -wal /tmp/n3.wal
//
// Lines typed on stdin are proposed to the group; committed entries are
// printed as they apply. A node started with -join sends a join request
// instead of bootstrapping membership from -peers. Use -loss to inject
// message loss like the paper's tc experiments.
//
// With -groups the process runs many consensus groups multiplexed over the
// same UDP endpoint and (with -wal) one shared group-commit WAL directory:
//
//	hraft-node -id p1 -listen 127.0.0.1:7101 -peers p1=...,p2=...,p3=... \
//	    -groups g-a,g-m -range g-m=m -wal /tmp/p1.wal -wal-group-commit
//
// -groups names the groups; -range assigns each group its inclusive key
// lower bound (unlisted groups own the bottom of the keyspace). Stdin
// lines route by key: "key=value" proposes the line in the group owning
// "key", "? key" reads it linearizably ("?l" lease, "?s" stale, "?f"
// follower-local), and "!split daughter pivot" / "!merge group" /
// "!transfer group target" / "!ranges" drive the shard lifecycle.
//
// With -debug-addr the node serves its full observability surface on one
// mux: Prometheus metrics at /metrics, a JSON status snapshot (role, term,
// peer progress, lease, trace tail) at /debug/hraft/status, the formatted
// flight-recorder ring at /debug/hraft/trace (?format=json for the shape
// hraft-audit replays), the online safety auditor's report at
// /debug/hraft/audit, and net/http/pprof under /debug/pprof/. Adding
// -debug-peers (id=host:port pairs naming the other nodes' debug servers)
// also serves /debug/hraft/cluster: every node's status fetched and
// aggregated into leader agreement, commit spread and per-node lag.
// Sending SIGQUIT (ctrl-\) prints the trace tail to stderr without
// stopping the node.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	hraft "github.com/hraft-io/hraft"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hraft-node:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id       = flag.String("id", "", "node ID (required)")
		listen   = flag.String("listen", "127.0.0.1:0", "UDP listen address")
		peers    = flag.String("peers", "", "comma-separated id=addr pairs (including this node)")
		join     = flag.Bool("join", false, "join an existing group instead of bootstrapping")
		walPath  = flag.String("wal", "", "write-ahead log path (default: in-memory)")
		walGC    = flag.Bool("wal-group-commit", false, "batch concurrent WAL writes into one fsync; acks wait for durability")
		walWin   = flag.Duration("wal-sync-window", 0, "max time a write waits for its fsync batch (0 = 2ms default, negative = eager)")
		walSyncB = flag.Int("wal-sync-bytes", 0, "flush the fsync batch early past this many buffered bytes (0 = 256 KiB default)")
		walSegB  = flag.Int("wal-segment-bytes", 0, "seal WAL segments past this size (0 = 4 MiB default)")
		loss     = flag.Float64("loss", 0, "injected send-side message loss probability [0,1)")
		hb       = flag.Duration("heartbeat", 100*time.Millisecond, "leader heartbeat interval")
		snapN    = flag.Int("snapshot-threshold", 0, "compact the log every N committed entries (0 = never)")
		chunk    = flag.Int("snapshot-chunk", 0, "stream snapshot transfers in chunks of at most this many bytes (0 = one message)")
		maxInfl  = flag.Int("max-inflight-bytes", 0, "per-follower byte budget for outstanding AppendEntries payloads (0 = 1 MiB default)")
		metrics  = flag.String("metrics", "", "serve Prometheus text metrics at this addr (e.g. 127.0.0.1:9090; empty = off)")
		dbgAddr  = flag.String("debug-addr", "", "serve metrics, /debug/hraft/status and pprof at this addr (empty = off; implies -trace)")
		dbgPeer  = flag.String("debug-peers", "", "comma-separated id=host:port pairs naming the other nodes' -debug-addr servers; enables the /debug/hraft/cluster roll-up")
		doTrace  = flag.Bool("trace", false, "enable the protocol flight recorder (SIGQUIT prints the trace tail)")
		sampleN  = flag.Int("trace-sample", 0, "mint a wire-propagated trace ID for every Nth proposal/read originating here (0 = off; implies -trace)")
		slowOp   = flag.Duration("slow-op", 0, "log proposals whose commit takes longer than this (0 = off; implies -trace)")
		quiet    = flag.Bool("quiet", false, "suppress per-commit output")
		groupsF  = flag.String("groups", "", "comma-separated group IDs: run a sharded node multiplexing these groups (empty = single group)")
		rangesF  = flag.String("range", "", "comma-separated gid=start pairs assigning each group its inclusive key lower bound (unlisted groups start at the bottom)")
	)
	flag.Parse()
	if *id == "" {
		return fmt.Errorf("-id is required")
	}

	tr, err := hraft.ListenUDP(hraft.NodeID(*id), *listen)
	if err != nil {
		return err
	}
	fmt.Printf("node %s listening on %s\n", *id, tr.LocalAddr())
	tr.SetLoss(*loss)

	var members []hraft.NodeID
	for _, pair := range strings.Split(*peers, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, addr, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("bad peer %q (want id=addr)", pair)
		}
		if name != *id {
			if err := tr.AddPeer(hraft.NodeID(name), addr); err != nil {
				return err
			}
		}
		members = append(members, hraft.NodeID(name))
	}

	if *groupsF != "" {
		if *join {
			return fmt.Errorf("-join is not supported with -groups")
		}
		return runShard(shardParams{
			id: hraft.NodeID(*id), tr: tr, members: members,
			groups: *groupsF, ranges: *rangesF,
			walPath: *walPath,
			walOpts: hraft.WALOptions{
				GroupCommit:  *walGC,
				SyncWindow:   *walWin,
				SyncBytes:    *walSyncB,
				SegmentBytes: *walSegB,
			},
			hb: *hb, snapN: *snapN, chunk: *chunk,
			metrics: *metrics, dbgAddr: *dbgAddr, dbgPeer: *dbgPeer,
			doTrace: *doTrace || *dbgAddr != "" || *slowOp > 0 || *sampleN > 0,
			slowOp:  *slowOp, sampleN: *sampleN,
			quiet: *quiet,
		})
	}

	store := hraft.NewMemoryStorage()
	if *walPath != "" {
		store, err = hraft.OpenWALOptions(*walPath, hraft.WALOptions{
			GroupCommit:  *walGC,
			SyncWindow:   *walWin,
			SyncBytes:    *walSyncB,
			SegmentBytes: *walSegB,
		})
		if err != nil {
			return err
		}
	}

	bootstrap := members
	if *join {
		bootstrap = nil
	}
	// With -snapshot-threshold the node keeps a line log as its state
	// machine and compacts consensus state through it: the snapshot is the
	// applied lines, so a restarted node reprints state from the snapshot
	// instead of replaying the full history.
	var lines *lineLog
	var snapshotter hraft.Snapshotter
	if *snapN > 0 {
		lines = newLineLog()
		snapshotter = lines
	}
	var traceOpts *hraft.TraceOptions
	if *doTrace || *dbgAddr != "" || *slowOp > 0 || *sampleN > 0 {
		traceOpts = &hraft.TraceOptions{SlowOp: *slowOp, SampleRate: *sampleN}
	}
	node, err := hraft.NewNode(hraft.Options{
		ID:                hraft.NodeID(*id),
		Peers:             bootstrap,
		Transport:         tr,
		Storage:           store,
		HeartbeatInterval: *hb,
		SnapshotThreshold: *snapN,
		Snapshotter:       snapshotter,
		MaxSnapshotChunk:  *chunk,
		MaxInflightBytes:  *maxInfl,
		Trace:             traceOpts,
	})
	if err != nil {
		return err
	}
	defer node.Stop()
	if *metrics != "" {
		maddr, stopMetrics, merr := hraft.ServeMetrics(*metrics, *id, node)
		if merr != nil {
			return merr
		}
		defer stopMetrics()
		fmt.Printf("metrics at http://%s/metrics\n", maddr)
	}
	if *dbgAddr != "" {
		var dbgOpts []hraft.DebugOption
		if *dbgPeer != "" {
			peerDbg := make(map[string]string)
			for _, pair := range strings.Split(*dbgPeer, ",") {
				pair = strings.TrimSpace(pair)
				if pair == "" {
					continue
				}
				name, addr, ok := strings.Cut(pair, "=")
				if !ok {
					return fmt.Errorf("bad debug peer %q (want id=host:port)", pair)
				}
				peerDbg[name] = addr
			}
			dbgOpts = append(dbgOpts, hraft.WithPeers(peerDbg))
		}
		daddr, stopDebug, derr := hraft.ServeDebug(*dbgAddr, *id, node, dbgOpts...)
		if derr != nil {
			return derr
		}
		defer stopDebug()
		fmt.Printf("debug at http://%s/debug/hraft/status (metrics, trace, audit and pprof alongside)\n", daddr)
	}
	if traceOpts != nil {
		// SIGQUIT (ctrl-\) dumps the flight-recorder tail without killing
		// the node: the post-mortem that works mid-flight.
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, syscall.SIGQUIT)
		go func() {
			for range sigc {
				tail := node.Recorder().Tail(64)
				fmt.Fprintf(os.Stderr, "--- flight recorder tail (%d events) ---\n%s",
					len(tail), hraft.FormatTrace(tail))
			}
		}()
	}
	if lines != nil {
		if restored := lines.size(); restored > 0 {
			fmt.Printf("[restored] %d lines from snapshot (log starts at %d)\n",
				restored, node.FirstIndex())
		}
	}

	go func() {
		for e := range node.Commits() {
			if lines != nil {
				lines.apply(e)
			}
			if *quiet {
				continue
			}
			switch e.Kind {
			case hraft.EntryNormal:
				fmt.Printf("[commit %d] %s\n", e.Index, e.Data)
			case hraft.EntryConfig:
				fmt.Printf("[config %d] members=%v\n", e.Index, e.Config)
			}
		}
	}()

	if *join {
		var contacts []hraft.NodeID
		for _, m := range members {
			if m != hraft.NodeID(*id) {
				contacts = append(contacts, m)
			}
		}
		fmt.Printf("joining via %v ...\n", contacts)
		node.Join(contacts)
	}

	fmt.Println("type a line to propose it; '?' = linearizable read, '?l' = lease read, '?s' = stale read; ctrl-d to exit")
	scanner := bufio.NewScanner(os.Stdin)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		start := time.Now()
		if c, isRead := readConsistency(line); isRead {
			// Reads return the linearization index: the state machine is
			// current through it without having written a log entry.
			idx, err := node.ReadWith(ctx, c)
			cancel()
			if err != nil {
				fmt.Printf("read failed: %v\n", err)
				continue
			}
			fmt.Printf("read (%s) linearized at index %d in %v (leader %s, term %d)\n",
				c, idx, time.Since(start).Round(time.Millisecond), node.Leader(), node.Term())
			continue
		}
		idx, err := node.Propose(ctx, []byte(line))
		cancel()
		if err != nil {
			fmt.Printf("propose failed: %v\n", err)
			continue
		}
		fmt.Printf("committed at index %d in %v (leader %s, term %d)\n",
			idx, time.Since(start).Round(time.Millisecond), node.Leader(), node.Term())
	}
	return scanner.Err()
}

// readConsistency maps the interactive read syntax onto a consistency
// mode: "?" linearizable, "?l" lease-based, "?s" stale, "?f"
// follower-local.
func readConsistency(line string) (hraft.ReadConsistency, bool) {
	switch line {
	case "?":
		return hraft.ReadLinearizable, true
	case "?l":
		return hraft.ReadLeaseBased, true
	case "?s":
		return hraft.ReadStale, true
	case "?f":
		return hraft.ReadFollowerLocal, true
	default:
		return 0, false
	}
}

// shardParams carries the parsed flags into the sharded-node path.
type shardParams struct {
	id      hraft.NodeID
	tr      *hraft.UDPTransport
	members []hraft.NodeID
	groups  string
	ranges  string
	walPath string
	walOpts hraft.WALOptions
	hb      time.Duration
	snapN   int
	chunk   int
	metrics string
	dbgAddr string
	dbgPeer string
	doTrace bool
	slowOp  time.Duration
	sampleN int
	quiet   bool
}

// parseShardGroups turns -groups/-range into the initial range table. Every
// group named in -range owns the keys from its start; the one group left
// unlisted owns the bottom of the keyspace.
func parseShardGroups(groups, ranges string) ([]hraft.ShardGroup, error) {
	starts := make(map[string]string)
	for _, pair := range strings.Split(ranges, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		gid, start, ok := strings.Cut(pair, "=")
		if !ok || gid == "" || start == "" {
			return nil, fmt.Errorf("bad -range entry %q (want gid=start)", pair)
		}
		if _, dup := starts[gid]; dup {
			return nil, fmt.Errorf("group %q listed twice in -range", gid)
		}
		starts[gid] = start
	}
	var specs []hraft.ShardGroup
	seen := make(map[string]bool)
	for _, gid := range strings.Split(groups, ",") {
		gid = strings.TrimSpace(gid)
		if gid == "" {
			continue
		}
		if seen[gid] {
			return nil, fmt.Errorf("group %q listed twice in -groups", gid)
		}
		seen[gid] = true
		specs = append(specs, hraft.ShardGroup{ID: hraft.GroupID(gid), Start: starts[gid]})
		delete(starts, gid)
	}
	if len(starts) > 0 {
		for gid := range starts {
			return nil, fmt.Errorf("-range names group %q missing from -groups", gid)
		}
	}
	return specs, nil
}

// parseDebugPeers turns -debug-peers into the id -> host:port map.
func parseDebugPeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, addr, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("bad debug peer %q (want id=host:port)", pair)
		}
		peers[name] = addr
	}
	return peers, nil
}

// runShard runs the process as a sharded node: many consensus groups over
// the one UDP endpoint, lines routed to groups by key.
func runShard(p shardParams) error {
	specs, err := parseShardGroups(p.groups, p.ranges)
	if err != nil {
		return err
	}
	opts := hraft.ShardOptions{
		ID:                p.id,
		Peers:             p.members,
		Groups:            specs,
		Transport:         p.tr,
		HeartbeatInterval: p.hb,
		SnapshotThreshold: p.snapN,
		MaxSnapshotChunk:  p.chunk,
	}
	if p.walPath != "" {
		stores, meta, werr := hraft.OpenShardWAL(p.walPath, p.walOpts)
		if werr != nil {
			return werr
		}
		opts.Storage = stores
		opts.Meta = meta
	}
	if p.doTrace {
		opts.Trace = &hraft.TraceOptions{SlowOp: p.slowOp, SampleRate: p.sampleN}
	}
	node, err := hraft.NewShardNode(opts)
	if err != nil {
		return err
	}
	defer node.Stop()
	fmt.Printf("sharded node %s: %d groups\n", p.id, len(specs))
	for _, r := range node.Ranges() {
		fmt.Printf("  [%q, ...) -> %s\n", r.Start, r.Group)
	}
	if p.metrics != "" {
		maddr, stopMetrics, merr := hraft.ServeMetrics(p.metrics, string(p.id), node)
		if merr != nil {
			return merr
		}
		defer stopMetrics()
		fmt.Printf("metrics at http://%s/metrics\n", maddr)
	}
	if p.dbgAddr != "" {
		var dbgOpts []hraft.DebugOption
		if p.dbgPeer != "" {
			peerDbg, perr := parseDebugPeers(p.dbgPeer)
			if perr != nil {
				return perr
			}
			dbgOpts = append(dbgOpts, hraft.WithPeers(peerDbg))
		}
		daddr, stopDebug, derr := hraft.ServeDebug(p.dbgAddr, string(p.id), node, dbgOpts...)
		if derr != nil {
			return derr
		}
		defer stopDebug()
		fmt.Printf("debug at http://%s/debug/hraft/shards (status, metrics, trace, audit and pprof alongside)\n", daddr)
	}

	go func() {
		for c := range node.Commits() {
			if p.quiet {
				continue
			}
			switch c.Entry.Kind {
			case hraft.EntryNormal:
				fmt.Printf("[%s commit %d] %s\n", c.Group, c.Entry.Index, c.Entry.Data)
			case hraft.EntryConfig:
				fmt.Printf("[%s config %d] members=%v\n", c.Group, c.Entry.Index, c.Entry.Config)
			}
		}
	}()

	fmt.Println(`lines route by key ("key=value" routes by key); "? key" = linearizable read, "?l"/"?s"/"?f" = lease/stale/follower-local; "!split daughter pivot", "!merge group", "!transfer group target", "!ranges"; ctrl-d to exit`)
	scanner := bufio.NewScanner(os.Stdin)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		start := time.Now()
		shardCommand(ctx, node, line, start)
		cancel()
	}
	return scanner.Err()
}

// shardCommand executes one interactive line against a sharded node.
func shardCommand(ctx context.Context, node *hraft.ShardNode, line string, start time.Time) {
	fields := strings.Fields(line)
	if c, isRead := readConsistency(fields[0]); isRead {
		if len(fields) != 2 {
			fmt.Printf("usage: %s <key>\n", fields[0])
			return
		}
		key := fields[1]
		idx, err := node.ReadWith(ctx, key, c)
		if err != nil {
			fmt.Printf("read failed: %v\n", err)
			return
		}
		fmt.Printf("read (%s) %s linearized at %s index %d in %v\n",
			c, key, node.Route(key), idx, time.Since(start).Round(time.Millisecond))
		return
	}
	switch fields[0] {
	case "!ranges":
		for _, r := range node.Ranges() {
			fmt.Printf("  [%q, ...) -> %s\n", r.Start, r.Group)
		}
		return
	case "!split":
		if len(fields) != 3 {
			fmt.Println("usage: !split <daughter> <pivot>")
			return
		}
		idx, err := node.Split(ctx, hraft.GroupID(fields[1]), fields[2])
		if err != nil {
			fmt.Printf("split failed: %v\n", err)
			return
		}
		fmt.Printf("split committed at index %d: keys >= %q now route to %s\n", idx, fields[2], fields[1])
		return
	case "!merge":
		if len(fields) != 2 {
			fmt.Println("usage: !merge <group>")
			return
		}
		idx, err := node.Merge(ctx, hraft.GroupID(fields[1]))
		if err != nil {
			fmt.Printf("merge failed: %v\n", err)
			return
		}
		fmt.Printf("merge committed at index %d: %s folded into its left neighbor\n", idx, fields[1])
		return
	case "!transfer":
		if len(fields) != 3 {
			fmt.Println("usage: !transfer <group> <target>")
			return
		}
		if !node.TransferLeader(hraft.GroupID(fields[1]), hraft.NodeID(fields[2])) {
			fmt.Printf("transfer refused: this process does not lead %s, or %s is not a member\n", fields[1], fields[2])
			return
		}
		fmt.Printf("leadership of %s moving to %s\n", fields[1], fields[2])
		return
	}
	// A proposal: route by the part before '=' (the whole line otherwise).
	key := line
	if k, _, ok := strings.Cut(line, "="); ok {
		key = k
	}
	idx, err := node.Propose(ctx, key, []byte(line))
	if err != nil {
		fmt.Printf("propose failed: %v\n", err)
		return
	}
	fmt.Printf("committed in %s at index %d in %v\n",
		node.Route(key), idx, time.Since(start).Round(time.Millisecond))
}

// lineLog is the node's state machine when snapshotting is enabled: the
// multiset of committed lines, serialized newline-separated.
type lineLog struct {
	mu      sync.Mutex
	lines   []string
	count   int
	applied hraft.Index
}

func newLineLog() *lineLog { return &lineLog{} }

func (l *lineLog) size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.applied == 0 {
		return 0
	}
	return l.count
}

func (l *lineLog) apply(e hraft.Entry) {
	if e.Kind != hraft.EntryNormal {
		return
	}
	l.mu.Lock()
	if e.Index > l.applied {
		l.lines = append(l.lines, string(e.Data))
		l.count++
		l.applied = e.Index
	}
	l.mu.Unlock()
}

// Snapshot implements hraft.Snapshotter.
func (l *lineLog) Snapshot() ([]byte, hraft.Index, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return []byte(strings.Join(l.lines, "\n")), l.applied, nil
}

// Restore implements hraft.Snapshotter.
func (l *lineLog) Restore(snap hraft.Snapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = nil
	if len(snap.Data) > 0 {
		l.lines = strings.Split(string(snap.Data), "\n")
	}
	l.count = len(l.lines)
	l.applied = snap.Meta.LastIndex
	return nil
}
