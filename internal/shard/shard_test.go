package shard

import (
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"github.com/hraft-io/hraft/internal/core/fastraft"
	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/types"
)

// newTestManager builds a single-process manager whose groups are
// single-member (they elect themselves and commit without a network),
// backed by the given storage fabric so tests can restart it.
func newTestManager(t *testing.T, stores map[types.GroupID]*storage.Memory, meta storage.Storage, groups []GroupSpec) *Manager {
	t.Helper()
	boot := types.NewConfig("p1")
	m, err := New(Config{
		ProcessID: "p1",
		Groups:    groups,
		Storage: func(gid types.GroupID) storage.Storage {
			st, ok := stores[gid]
			if !ok {
				st = storage.NewMemory()
				stores[gid] = st
			}
			return st
		},
		Meta: meta,
		NewCore: func(gid types.GroupID, gboot types.Config, st storage.Storage) (*fastraft.Node, error) {
			return fastraft.New(fastraft.Config{
				ID:                "p1",
				Bootstrap:         gboot,
				Storage:           st,
				HeartbeatInterval: 10 * time.Millisecond,
				Rand:              rand.New(rand.NewSource(int64(len(gid)) + 1)),
			})
		},
		RetireDrain: 20 * time.Millisecond,
	}, boot)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// drive advances the manager through d of virtual time, ticking due
// deadlines and draining outputs (discarded: single-member groups have no
// peers), returning all committed entries seen.
func drive(m *Manager, from, d time.Duration) (time.Duration, []GroupEntryLike) {
	var out []GroupEntryLike
	end := from + d
	now := from
	for now < end {
		next := m.NextDeadline()
		if next == 0 || next > end {
			now = end
		} else if next > now {
			now = next
		}
		m.Tick(now)
		m.DrainOutbox(nil)
		for _, ge := range m.DrainGroupCommitted(nil) {
			out = append(out, GroupEntryLike{Group: ge.Group, Entry: ge.Entry})
		}
		m.DrainGroupResolved(nil)
		now += time.Millisecond
	}
	return now, out
}

// GroupEntryLike mirrors runtime.GroupEntry without importing runtime in
// assertions.
type GroupEntryLike struct {
	Group types.GroupID
	Entry types.Entry
}

func TestRouteBoundaries(t *testing.T) {
	stores := map[types.GroupID]*storage.Memory{}
	m := newTestManager(t, stores, nil, []GroupSpec{
		{ID: "ga", Start: ""},
		{ID: "gm", Start: "m"},
		{ID: "gt", Start: "t"},
	})
	cases := map[string]types.GroupID{
		"":    "ga",
		"a":   "ga",
		"lzz": "ga",
		"m":   "gm", // inclusive lower bound
		"mm":  "gm",
		"szz": "gm",
		"t":   "gt",
		"zz":  "gt",
	}
	for key, want := range cases {
		if got := m.Route(key); got != want {
			t.Errorf("Route(%q) = %s, want %s", key, got, want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{
			ProcessID: "p1",
			Groups:    []GroupSpec{{ID: "g", Start: ""}},
			Storage:   func(types.GroupID) storage.Storage { return storage.NewMemory() },
			NewCore: func(gid types.GroupID, boot types.Config, st storage.Storage) (*fastraft.Node, error) {
				return nil, nil
			},
		}
	}
	bad := []func(*Config){
		func(c *Config) { c.ProcessID = "" },
		func(c *Config) { c.Groups = nil },
		func(c *Config) { c.Groups = []GroupSpec{{ID: "g", Start: "x"}} },
		func(c *Config) {
			c.Groups = []GroupSpec{{ID: "a", Start: ""}, {ID: "b", Start: "m"}, {ID: "c", Start: "m"}}
		},
		func(c *Config) { c.Storage = nil },
		func(c *Config) { c.NewCore = nil },
	}
	for i, mutate := range bad {
		cfg := base()
		mutate(&cfg)
		if err := cfg.defaults(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	cfg := base()
	if err := cfg.defaults(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if cfg.MaxBatchBytes != 48<<10 || cfg.RetireDrain != time.Second {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

// TestPackDestCoalescing drives the packer directly: many small messages to
// one peer fold into one ShardBatch, an oversized message travels alone,
// and a lone frame is never wrapped.
func TestPackDestCoalescing(t *testing.T) {
	m := &Manager{cfg: Config{ProcessID: "p1", MaxBatchBytes: 1 << 10}}
	small := func(gid types.GroupID) types.Envelope {
		return types.Envelope{
			From: "p1", To: "p2", Group: gid,
			Msg: types.CommitNotify{},
		}
	}
	envs := []types.Envelope{small("g1"), small("g2"), small("g3")}
	out := m.packDest(nil, "p2", envs)
	if len(out) != 1 {
		t.Fatalf("3 small messages produced %d envelopes, want 1 batch", len(out))
	}
	b, ok := out[0].Msg.(types.ShardBatch)
	if !ok || len(b.Frames) != 3 {
		t.Fatalf("batch = %#v, want 3 frames", out[0].Msg)
	}
	if b.Frames[0].Group != "g1" || b.Frames[2].Group != "g3" {
		t.Fatalf("frame group tags lost: %+v", b.Frames)
	}
	if m.statBatches != 1 || m.statCoalesced != 3 {
		t.Fatalf("stats: batches=%d coalesced=%d", m.statBatches, m.statCoalesced)
	}

	// An InstallSnapshot bigger than the budget goes out alone; the small
	// messages around it still coalesce.
	huge := types.Envelope{From: "p1", To: "p2", Group: "g2",
		Msg: types.InstallSnapshot{Data: make([]byte, 2<<10)}}
	out = m.packDest(nil, "p2", []types.Envelope{small("g1"), huge, small("g3")})
	if len(out) != 2 {
		t.Fatalf("oversize mix produced %d envelopes, want 2", len(out))
	}
	if _, ok := out[0].Msg.(types.InstallSnapshot); !ok {
		t.Fatalf("oversize message was batched: %#v", out[0].Msg)
	}
	if b, ok := out[1].Msg.(types.ShardBatch); !ok || len(b.Frames) != 2 {
		t.Fatalf("remaining small messages not coalesced: %#v", out[1].Msg)
	}

	// A single message to a destination is never wrapped.
	out = m.packDest(nil, "p2", []types.Envelope{small("g1")})
	if len(out) != 1 {
		t.Fatalf("lone message produced %d envelopes", len(out))
	}
	if _, ok := out[0].Msg.(types.ShardBatch); ok {
		t.Fatal("lone message was wrapped in a batch")
	}
}

// TestStepUnpacksBatches checks a received ShardBatch fans its frames to
// their groups and unknown-group frames drop without disturbing the rest.
func TestStepUnpacksBatches(t *testing.T) {
	stores := map[types.GroupID]*storage.Memory{}
	m := newTestManager(t, stores, nil, []GroupSpec{{ID: "ga", Start: ""}})
	m.Step(0, types.Envelope{
		From: "p2", To: "p1", Layer: types.LayerLocal,
		Msg: types.ShardBatch{Frames: []types.ShardFrame{
			{Group: "ga", Layer: types.LayerLocal, Msg: types.CommitNotify{}},
			{Group: "gone", Layer: types.LayerLocal, Msg: types.CommitNotify{}},
		}},
	})
	mt := m.Metrics()
	if mt["shard.frames_received"] != 2 {
		t.Fatalf("frames_received = %d, want 2", mt["shard.frames_received"])
	}
	if mt["shard.dropped_unknown_group"] != 1 {
		t.Fatalf("dropped_unknown_group = %d, want 1", mt["shard.dropped_unknown_group"])
	}
}

// TestSplitMergeLifecycle runs a split and a merge through real committed
// entries on a single-member manager, checks routing and journal effects,
// then restarts the manager over the same storage and checks the meta
// journal rebuilds the same table.
func TestSplitMergeLifecycle(t *testing.T) {
	stores := map[types.GroupID]*storage.Memory{}
	meta := storage.NewMemory()
	seeded := make(map[types.GroupID]string)
	m := newTestManager(t, stores, meta, []GroupSpec{{ID: "ga", Start: ""}})
	m.cfg.SplitSeed = func(parent, daughter types.GroupID, pivot string) []byte {
		seeded[daughter] = pivot
		return []byte("seed@" + pivot)
	}
	now := time.Duration(0)
	now, _ = drive(m, now, 50*time.Millisecond) // let ga elect itself

	if _, err := m.Split(now, "gm", "m"); err != nil {
		t.Fatal(err)
	}
	now, _ = drive(m, now, 100*time.Millisecond)
	if m.Route("x") != "gm" || m.Route("a") != "ga" {
		t.Fatalf("post-split routing wrong: %+v", m.Ranges())
	}
	if m.Group("gm") == nil {
		t.Fatal("daughter core not opened")
	}
	if seeded["gm"] != "m" {
		t.Fatalf("daughter not seeded: %v", seeded)
	}
	snap, ok, err := stores["gm"].LoadSnapshot()
	if err != nil || !ok || string(snap.Data) != "seed@m" {
		t.Fatalf("daughter seed snapshot: ok=%v err=%v data=%q", ok, err, snap.Data)
	}
	// Re-applying the same split entry is a no-op (restart re-emission).
	splitsBefore := m.statSplits
	data := mustJSON(t, splitPayload{Daughter: "gm", Pivot: "m"})
	m.applySplit(m.groups["ga"], types.Entry{Kind: types.KindShardSplit, Data: data})
	if m.statSplits != splitsBefore || len(m.Ranges()) != 2 {
		t.Fatal("duplicate split entry mutated the table")
	}

	// Propose into the daughter, then merge it away.
	_, _ = drive(m, now, 50*time.Millisecond)
	if _, err := m.Merge(now, "gm"); err != nil {
		t.Fatal(err)
	}
	now, _ = drive(m, now, 100*time.Millisecond)
	if m.Route("x") != "ga" {
		t.Fatalf("post-merge routing wrong: %+v", m.Ranges())
	}
	// The retired core garbage-collects after the drain window.
	now, _ = drive(m, now, 200*time.Millisecond)
	if m.Group("gm") != nil {
		t.Fatal("retired group not collected")
	}
	if got := m.Metrics()["shard.groups_retired"]; got != 1 {
		t.Fatalf("groups_retired = %d, want 1", got)
	}

	// Restart: the journal replays split+merge and lands on the same table.
	m2 := newTestManager(t, stores, meta, []GroupSpec{{ID: "ga", Start: ""}})
	if len(m2.Ranges()) != 1 || m2.Route("x") != "ga" {
		t.Fatalf("replayed table wrong: %+v", m2.Ranges())
	}
	if got := m2.Metrics()["shard.meta_replayed"]; got != 2 {
		t.Fatalf("meta_replayed = %d, want 2", got)
	}
}

// TestMergeValidation rejects merging the first range and unknown groups.
func TestMergeValidation(t *testing.T) {
	stores := map[types.GroupID]*storage.Memory{}
	m := newTestManager(t, stores, nil, []GroupSpec{
		{ID: "ga", Start: ""},
		{ID: "gm", Start: "m"},
	})
	if _, err := m.Merge(0, "ga"); err == nil {
		t.Fatal("merging the first range was accepted")
	}
	if _, err := m.Merge(0, "nope"); err == nil {
		t.Fatal("merging an unknown group was accepted")
	}
}

// TestSplitValidation rejects duplicate daughters and degenerate pivots.
func TestSplitValidation(t *testing.T) {
	stores := map[types.GroupID]*storage.Memory{}
	m := newTestManager(t, stores, nil, []GroupSpec{
		{ID: "ga", Start: ""},
		{ID: "gm", Start: "m"},
	})
	if _, err := m.Split(0, "gm", "q"); err == nil {
		t.Fatal("split onto an existing group ID was accepted")
	}
	if _, err := m.Split(0, "gx", "m"); err == nil {
		t.Fatal("split at a range's own start was accepted")
	}
	if _, err := m.Split(0, "gx", ""); err == nil {
		t.Fatal("split with empty pivot was accepted")
	}
}

func mustJSON(t *testing.T, v interface{}) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
