package shard

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/types"
)

// splitPayload rides in a KindShardSplit entry committed in the parent
// group's log: keys >= Pivot move to the new Daughter group.
type splitPayload struct {
	Daughter types.GroupID `json:"d"`
	Pivot    string        `json:"p"`
}

// mergePayload rides in a KindShardMerge entry committed in the retiring
// (right) group's log: its range folds into the Left neighbor.
type mergePayload struct {
	Left types.GroupID `json:"l"`
}

// metaRecord is one routing change journaled in Config.Meta, replayed at
// restart to rebuild the range table on top of the initial GroupSpecs.
type metaRecord struct {
	Op       string        `json:"op"` // "split" | "merge"
	Daughter types.GroupID `json:"d,omitempty"`
	Pivot    string        `json:"p,omitempty"`
	Left     types.GroupID `json:"l,omitempty"`
	Right    types.GroupID `json:"r,omitempty"`
}

// Split proposes carving the range [pivot, next) out of the group owning
// pivot into a new group named daughter. The split entry commits through
// the parent group's own consensus, so every member applies it at the same
// log position: each creates the daughter (seeded identically through
// Config.SplitSeed), inserts the same routing row, and proposals for moved
// keys flow to the daughter from that point on. Proposals already in flight
// in the parent commit exactly once — in the parent, where they started.
func (m *Manager) Split(now time.Duration, daughter types.GroupID, pivot string) (types.ProposalID, error) {
	m.now = now
	if daughter == "" || pivot == "" {
		return types.ProposalID{}, fmt.Errorf("shard: split needs a daughter ID and a non-empty pivot")
	}
	if _, exists := m.groups[daughter]; exists {
		return types.ProposalID{}, fmt.Errorf("shard: group %q already exists", daughter)
	}
	parent := m.Route(pivot)
	if start := m.rangeStart(parent); start == pivot {
		return types.ProposalID{}, fmt.Errorf("shard: pivot %q is group %q's own start", pivot, parent)
	}
	data, err := json.Marshal(splitPayload{Daughter: daughter, Pivot: pivot})
	if err != nil {
		return types.ProposalID{}, err
	}
	g := m.groups[parent]
	pid := g.core.ProposeEntryPID(now, types.Entry{Kind: types.KindShardSplit, Data: data}, m.nextPID())
	return pid, nil
}

// Merge proposes folding the named group's range into its left neighbor.
// The merge entry commits through the retiring group's own consensus, so it
// serializes after everything that group already accepted: every member
// removes the same routing row at the same log position, new proposals for
// the range flow to the left neighbor, and the retiring core stays alive
// (retired) until its in-flight proposals drain.
func (m *Manager) Merge(now time.Duration, right types.GroupID) (types.ProposalID, error) {
	m.now = now
	i := m.rangeIndex(right)
	if i < 0 {
		return types.ProposalID{}, fmt.Errorf("shard: group %q owns no range", right)
	}
	if i == 0 {
		return types.ProposalID{}, fmt.Errorf("shard: group %q owns the first range; merge its right neighbor instead", right)
	}
	left := m.ranges[i-1].Group
	data, err := json.Marshal(mergePayload{Left: left})
	if err != nil {
		return types.ProposalID{}, err
	}
	g := m.groups[right]
	pid := g.core.ProposeEntryPID(now, types.Entry{Kind: types.KindShardMerge, Data: data}, m.nextPID())
	return pid, nil
}

// TransferLeader orders the named group's leadership to move to the target
// process (see fastraft.Node.TransferLeader). Returns false when this
// process does not lead that group or the target is not a member.
func (m *Manager) TransferLeader(gid types.GroupID, target types.NodeID) bool {
	g, ok := m.groups[gid]
	if !ok {
		return false
	}
	if !g.core.TransferLeader(target) {
		return false
	}
	m.statTransfers++
	return true
}

// rangeIndex returns the routing row owned by gid (-1 if none).
func (m *Manager) rangeIndex(gid types.GroupID) int {
	for i, r := range m.ranges {
		if r.Group == gid {
			return i
		}
	}
	return -1
}

// rangeStart returns the inclusive lower bound of gid's range.
func (m *Manager) rangeStart(gid types.GroupID) string {
	if i := m.rangeIndex(gid); i >= 0 {
		return m.ranges[i].Start
	}
	return ""
}

// applySplit handles a committed KindShardSplit in group g: insert the
// daughter's routing row and open its core. Idempotent — a duplicate or
// stale split (the pivot no longer routed by g) is ignored, so re-emitted
// commits after a restart are harmless.
func (m *Manager) applySplit(g *group, e types.Entry) {
	var p splitPayload
	if err := json.Unmarshal(e.Data, &p); err != nil || p.Daughter == "" || p.Pivot == "" {
		return
	}
	if m.Route(p.Pivot) != g.id || m.rangeStart(g.id) == p.Pivot {
		return
	}
	m.insertRange(rangeEntry{Start: p.Pivot, Group: p.Daughter})
	m.statSplits++
	m.journal(metaRecord{Op: "split", Daughter: p.Daughter, Pivot: p.Pivot})
	if _, exists := m.groups[p.Daughter]; exists {
		return
	}
	boot := g.core.Config() // the parent's membership at the split position
	st := m.cfg.Storage(p.Daughter)
	if m.cfg.SplitSeed != nil && storageEmpty(st) {
		// Every member computes the seed from identical applied state, so
		// every member writes the identical snapshot: the daughter starts
		// at index 1 with the moved range's data in place, no transfer.
		seed := m.cfg.SplitSeed(g.id, p.Daughter, p.Pivot)
		snap := types.Snapshot{
			Meta: types.SnapshotMeta{LastIndex: 1, LastTerm: 1, Config: boot},
			Data: seed,
		}
		if err := st.SaveSnapshot(snap); err == nil {
			m.statSeedBytes += uint64(len(seed))
		}
	}
	// A failed daughter open leaves the routing row pointing at a group
	// this process cannot serve; proposals for it drop (statDropped) while
	// peers carry on. Surfacing the error would require failing the whole
	// process mid-commit-stream.
	_ = m.openGroup(p.Daughter, boot)
}

// applyMerge handles a committed KindShardMerge in group g: remove g's
// routing row (its left neighbor absorbs the range) and retire g's core.
// Idempotent like applySplit.
func (m *Manager) applyMerge(g *group, e types.Entry) {
	var p mergePayload
	if err := json.Unmarshal(e.Data, &p); err != nil || p.Left == "" {
		return
	}
	i := m.rangeIndex(g.id)
	if i <= 0 || m.ranges[i-1].Group != p.Left {
		return
	}
	m.ranges = append(m.ranges[:i], m.ranges[i+1:]...)
	g.retired = true
	g.retiredAt = m.now
	g.retiredIndex = e.Index
	m.statMerges++
	m.journal(metaRecord{Op: "merge", Left: p.Left, Right: g.id})
}

// insertRange adds a routing row in sorted position (replacing an existing
// row with the same Start, which cannot happen through the guarded apply
// paths but keeps the table consistent if it ever did).
func (m *Manager) insertRange(r rangeEntry) {
	i := sort.Search(len(m.ranges), func(i int) bool { return m.ranges[i].Start >= r.Start })
	if i < len(m.ranges) && m.ranges[i].Start == r.Start {
		m.ranges[i] = r
		return
	}
	m.ranges = append(m.ranges, rangeEntry{})
	copy(m.ranges[i+1:], m.ranges[i:])
	m.ranges[i] = r
}

// gcTick removes retired groups once their proposals resolved and the drain
// window passed: stragglers still replicating from peers got RetireDrain to
// finish; later messages drop like any unknown group's. A group this process
// leads also waits until the merge's commit index went out to its followers
// (see group.announced), however short the window.
func (m *Manager) gcTick(now time.Duration) {
	var dead []*group
	for _, g := range m.order {
		if !g.retired || g.core.PendingProposals() != 0 || now < g.retiredAt+m.cfg.RetireDrain {
			continue
		}
		if !g.announced && g.core.Role() == types.RoleLeader && g.core.Config().Size() > 1 {
			continue
		}
		dead = append(dead, g)
	}
	for _, g := range dead {
		m.removeOrdered(g)
		delete(m.groups, g.id)
		for key := range m.readMap {
			if key.gid == g.id {
				delete(m.readMap, key)
			}
		}
		m.statRetired++
	}
}

// journal appends one routing change to the Meta journal (no-op without
// one). Journal writes share the group-commit flusher with everything else;
// the idempotent apply paths absorb the rare crash that loses the journal
// tail but kept the consensus entry.
func (m *Manager) journal(rec metaRecord) {
	if m.cfg.Meta == nil {
		return
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return
	}
	m.metaSeq++
	_ = m.cfg.Meta.AppendEntry(types.Entry{Index: m.metaSeq, Term: 1, Kind: types.KindNormal, Data: data})
}

// replayMeta rebuilds the routing table from the journal at restart: the
// initial GroupSpecs give the base table, each record re-applies its
// mutation. Cores open afterwards from the final table.
func (m *Manager) replayMeta() error {
	if m.cfg.Meta == nil {
		return nil
	}
	_, entries, err := m.cfg.Meta.Load()
	if err != nil {
		return fmt.Errorf("shard: load meta journal: %w", err)
	}
	for _, e := range entries {
		if e.Index > m.metaSeq {
			m.metaSeq = e.Index
		}
		var rec metaRecord
		if err := json.Unmarshal(e.Data, &rec); err != nil {
			continue
		}
		switch rec.Op {
		case "split":
			if rec.Daughter != "" && rec.Pivot != "" {
				m.insertRange(rangeEntry{Start: rec.Pivot, Group: rec.Daughter})
			}
		case "merge":
			if i := m.rangeIndex(rec.Right); i > 0 && m.ranges[i-1].Group == rec.Left {
				m.ranges = append(m.ranges[:i], m.ranges[i+1:]...)
			}
		}
		m.statMetaReplay++
	}
	return nil
}

// storageEmpty reports whether a group's storage holds no recovered state —
// the daughter is being created for the first time, not reopened.
func storageEmpty(st storage.Storage) bool {
	hs, entries, err := st.Load()
	if err != nil || hs.Term != 0 || hs.VotedFor != "" || len(entries) > 0 {
		return false
	}
	_, hasSnap, err := st.LoadSnapshot()
	return err == nil && !hasSnap
}
