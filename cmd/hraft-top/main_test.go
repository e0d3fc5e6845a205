package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	hraft "github.com/hraft-io/hraft"
)

func sampleTop(node string) hraft.DebugTop {
	return hraft.DebugTop{
		Node: node,
		Groups: []hraft.DebugTopGroup{{
			Group:       "g0",
			Role:        "leader",
			Term:        3,
			Leader:      node,
			CommitIndex: 41,
			LastIndex:   44,
			CommitLag:   3,
			Proposals: hraft.RollingStats{
				Window:     16 * time.Second,
				Count:      320,
				RatePerSec: 20,
				P50:        2 * time.Millisecond,
				P99:        9 * time.Millisecond,
			},
			CommitsFast:    35,
			CommitsClassic: 5,
		}},
		FsyncBatchAvg: 4.5,
	}
}

func TestRenderTable(t *testing.T) {
	top := sampleTop("n1")
	rows := []row{{node: "n1", top: top, group: top.Groups[0]}}
	fastShare(rows, map[string]trackCounts{})
	out := render(rows, []string{"n3: connection refused"}, time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC))
	for _, want := range []string{
		"NODE", "GROUP", "LAG", "RATE/S", "P99", "FSYNC", "FAST%",
		"n1", "g0", "leader", "41", "3", "20.0", "9ms", "4.5", "88",
		"unreachable: n3: connection refused",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table lacks %q:\n%s", want, out)
		}
	}
}

// TestFastShareIsPerInterval: FAST% reflects the commits since the previous
// poll, not the node's lifetime — an early collision burst does not stick.
func TestFastShareIsPerInterval(t *testing.T) {
	seen := map[string]trackCounts{}
	frame := func(fast, classic uint64) float64 {
		top := sampleTop("n1")
		top.Groups[0].CommitsFast, top.Groups[0].CommitsClassic = fast, classic
		rows := []row{{node: "n1", top: top, group: top.Groups[0]}}
		fastShare(rows, seen)
		return rows[0].fast
	}
	if got := frame(0, 100); got != 0 {
		t.Fatalf("first frame = %v, want the lifetime share 0", got)
	}
	if got := frame(50, 100); got != 1 {
		t.Fatalf("all-fast interval = %v, want 1", got)
	}
	if got := frame(50, 100); got != -1 {
		t.Fatalf("idle interval = %v, want -1 (no commits)", got)
	}
	if got := frame(3, 1); got != 0.75 {
		t.Fatalf("after a restart = %v, want 0.75 (counters start over)", got)
	}
}

func TestPollFlattensAndSortsPeers(t *testing.T) {
	serve := func(top hraft.DebugTop) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/debug/hraft/top" {
				http.NotFound(w, r)
				return
			}
			json.NewEncoder(w).Encode(top)
		}))
	}
	s1 := serve(sampleTop("n2"))
	defer s1.Close()
	s2 := serve(sampleTop("n1"))
	defer s2.Close()

	client := &http.Client{Timeout: time.Second}
	rows, errs := poll(client, []string{
		"n2=" + s1.URL,
		"n1=" + s2.URL,
		"down=127.0.0.1:1", // unreachable peer reported, not fatal
	})
	if len(errs) != 1 || !strings.HasPrefix(errs[0], "down:") {
		t.Fatalf("errs = %v, want one for down", errs)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	// Same group, so rows sort by node name.
	if rows[0].node != "n1" || rows[1].node != "n2" {
		t.Fatalf("row order %s,%s; want n1,n2", rows[0].node, rows[1].node)
	}
	if rows[0].group.CommitLag != 3 || rows[0].top.FsyncBatchAvg != 4.5 {
		t.Fatalf("row payload suspect: %+v", rows[0])
	}
}
