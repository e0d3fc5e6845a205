// Command hraft-top is a live cluster console: it polls every listed
// peer's /debug/hraft/top endpoint and renders one refreshing table of
// per-group consensus state and sliding-window load — leader, term,
// commit lag, proposal rate, p50/p99 latency, fsync batch effectiveness,
// and FAST%, the share of the leader's commits since the previous poll
// that took the fast track (since the node started, on the first frame
// and with -once).
//
//	hraft-top -peer n1=host1:7070 -peer n2=host2:7070 -peer n3=host3:7070
//	hraft-top -peer host1:7070 -once                  # single snapshot
//
// Each -peer is "id=base-url" or a bare base URL (the node names itself
// in the response). The screen redraws every -interval (default 2s);
// unreachable peers are reported inline and retried on the next poll.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	hraft "github.com/hraft-io/hraft"
)

// peerList collects repeatable -peer flags.
type peerList []string

func (p *peerList) String() string     { return strings.Join(*p, ",") }
func (p *peerList) Set(v string) error { *p = append(*p, v); return nil }

func main() {
	var peers peerList
	flag.Var(&peers, "peer", `peer debug address, "id=host:port" or "host:port" (repeatable)`)
	interval := flag.Duration("interval", 2*time.Second, "refresh interval")
	timeout := flag.Duration("timeout", 2*time.Second, "per-peer fetch timeout")
	once := flag.Bool("once", false, "print one snapshot and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hraft-top -peer [id=]host:port ... [-interval 2s] [-once]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if len(peers) == 0 {
		flag.Usage()
		os.Exit(1)
	}
	client := &http.Client{Timeout: *timeout}
	seen := map[string]trackCounts{}
	for {
		rows, errs := poll(client, peers)
		fastShare(rows, seen)
		if *once {
			fmt.Print(render(rows, errs, time.Now()))
			if len(rows) == 0 {
				os.Exit(1)
			}
			return
		}
		// ANSI home+clear keeps the table in place between refreshes.
		fmt.Print("\x1b[H\x1b[2J" + render(rows, errs, time.Now()))
		time.Sleep(*interval)
	}
}

// row is one consensus group on one node, flattened for the table.
type row struct {
	node  string
	top   hraft.DebugTop
	group hraft.DebugTopGroup
	// fast is the fast-track share of the commits since the previous poll
	// (-1 = none were made).
	fast float64
}

// trackCounts is one row's cumulative commits by track at the last poll.
type trackCounts struct{ fast, classic uint64 }

// fastShare fills every row's fast-track share from the growth of its
// cumulative counters since the previous poll, and remembers them for the
// next. Counters that went backwards mean the node restarted: its row
// starts over.
func fastShare(rows []row, seen map[string]trackCounts) {
	for i := range rows {
		r := &rows[i]
		key := r.node + "/" + r.group.Group
		cur := trackCounts{r.group.CommitsFast, r.group.CommitsClassic}
		prev := seen[key]
		if cur.fast < prev.fast || cur.classic < prev.classic {
			prev = trackCounts{}
		}
		seen[key] = cur
		r.fast = -1
		if n := (cur.fast - prev.fast) + (cur.classic - prev.classic); n > 0 {
			r.fast = float64(cur.fast-prev.fast) / float64(n)
		}
	}
}

// poll fetches every peer's DebugTop, returning flattened group rows and
// per-peer fetch errors.
func poll(client *http.Client, peers []string) ([]row, []string) {
	var rows []row
	var errs []string
	for _, p := range peers {
		id, base := p, p
		if i := strings.IndexByte(p, '='); i >= 0 {
			id, base = p[:i], p[i+1:]
		}
		top, err := fetch(client, base)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", id, err))
			continue
		}
		for _, g := range top.Groups {
			rows = append(rows, row{node: top.Node, top: top, group: g})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].group.Group != rows[j].group.Group {
			return rows[i].group.Group < rows[j].group.Group
		}
		return rows[i].node < rows[j].node
	})
	return rows, errs
}

// fetch pulls one peer's /debug/hraft/top document.
func fetch(client *http.Client, base string) (hraft.DebugTop, error) {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	url := strings.TrimSuffix(base, "/") + "/debug/hraft/top"
	var top hraft.DebugTop
	resp, err := client.Get(url)
	if err != nil {
		return top, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return top, fmt.Errorf("status %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&top); err != nil {
		return top, fmt.Errorf("decode: %w", err)
	}
	return top, nil
}

// render formats the cluster table; factored from main so tests drive it
// directly.
func render(rows []row, errs []string, now time.Time) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hraft-top  %s  %d group-rows\n\n", now.Format("15:04:05"), len(rows))
	fmt.Fprintf(&b, "%-12s %-10s %-10s %-10s %6s %9s %6s %9s %9s %9s %7s %6s\n",
		"NODE", "GROUP", "ROLE", "LEADER", "TERM", "COMMIT", "LAG", "RATE/S", "P50", "P99", "FSYNC", "FAST%")
	for _, r := range rows {
		g := r.group
		fsync := "-"
		if r.top.FsyncBatchAvg > 0 {
			fsync = fmt.Sprintf("%.1f", r.top.FsyncBatchAvg)
		}
		// Followers commit nothing as leader.
		fast := "-"
		if r.fast >= 0 {
			fast = fmt.Sprintf("%.0f", 100*r.fast)
		}
		fmt.Fprintf(&b, "%-12s %-10s %-10s %-10s %6d %9d %6d %9.1f %9s %9s %7s %6s\n",
			r.node, g.Group, g.Role, g.Leader, g.Term, g.CommitIndex, g.CommitLag,
			g.Proposals.RatePerSec, g.Proposals.P50, g.Proposals.P99, fsync, fast)
	}
	for _, e := range errs {
		fmt.Fprintf(&b, "\nunreachable: %s\n", e)
	}
	return b.String()
}
