package types

import (
	"testing"
)

func TestConfigBasics(t *testing.T) {
	c := NewConfig("b", "a", "c", "a") // duplicates removed, sorted
	if c.Size() != 3 {
		t.Fatalf("size = %d, want 3", c.Size())
	}
	if got := c.String(); got != "{a,b,c}" {
		t.Fatalf("String() = %q", got)
	}
	if !c.Contains("b") || c.Contains("z") {
		t.Fatal("Contains wrong")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigWithWithoutMember(t *testing.T) {
	c := NewConfig("a", "b")
	d := c.WithMember("c")
	if !d.Contains("c") || c.Contains("c") {
		t.Fatal("WithMember must not mutate the receiver")
	}
	e := d.WithoutMember("a")
	if e.Contains("a") || !d.Contains("a") {
		t.Fatal("WithoutMember must not mutate the receiver")
	}
	if same := d.WithMember("c"); !same.Equal(d) {
		t.Fatal("WithMember of existing member should be identity")
	}
}

func TestConfigOthers(t *testing.T) {
	c := NewConfig("a", "b", "c")
	others := c.Others("b")
	if len(others) != 2 || others[0] != "a" || others[1] != "c" {
		t.Fatalf("Others = %v", others)
	}
	if got := c.Others("zz"); len(got) != 3 {
		t.Fatalf("Others for non-member = %v", got)
	}
}

// TestEntryCloneSharesData pins the ownership rule: a clone shares the
// read-only payload and owns its struct fields and Config.
func TestEntryCloneSharesData(t *testing.T) {
	cfg := NewConfig("a")
	e := Entry{Index: 1, Data: []byte{1, 2, 3}, Config: &cfg}
	c := e.Clone()
	if &c.Data[0] != &e.Data[0] {
		t.Fatal("Clone copied Data")
	}
	c.Index = 2
	c.Config.Members[0] = "z"
	if e.Index != 1 {
		t.Fatal("Clone aliases the struct")
	}
	if e.Config.Members[0] != "a" {
		t.Fatal("Clone aliases Config")
	}
}

func TestEntrySameProposal(t *testing.T) {
	p1 := ProposalID{Proposer: "a", Seq: 1}
	p2 := ProposalID{Proposer: "a", Seq: 2}
	tests := []struct {
		name string
		a, b Entry
		want bool
	}{
		{"same pid", Entry{PID: p1, Data: []byte("x")}, Entry{PID: p1, Data: []byte("y")}, true},
		{"different pid", Entry{PID: p1}, Entry{PID: p2}, false},
		{"pid vs none", Entry{PID: p1}, Entry{Kind: KindNoop}, false},
		{"noop vs noop", Entry{Kind: KindNoop}, Entry{Kind: KindNoop}, true},
		{"kind mismatch", Entry{Kind: KindNoop}, Entry{Kind: KindNormal}, false},
		{"payload match", Entry{Kind: KindNormal, Data: []byte("x")},
			Entry{Kind: KindNormal, Data: []byte("x")}, true},
		{"payload mismatch", Entry{Kind: KindNormal, Data: []byte("x")},
			Entry{Kind: KindNormal, Data: []byte("y")}, false},
	}
	for _, tt := range tests {
		if got := tt.a.SameProposal(tt.b); got != tt.want {
			t.Errorf("%s: SameProposal = %v, want %v", tt.name, got, tt.want)
		}
		if got := tt.b.SameProposal(tt.a); got != tt.want {
			t.Errorf("%s (sym): SameProposal = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestProposalIDOrder(t *testing.T) {
	a := ProposalID{Proposer: "a", Seq: 2}
	b := ProposalID{Proposer: "b", Seq: 1}
	c := ProposalID{Proposer: "a", Seq: 3}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("proposer order broken")
	}
	if !a.Less(c) || c.Less(a) {
		t.Fatal("seq order broken")
	}
	if a.Less(a) {
		t.Fatal("irreflexivity broken")
	}
}

// TestCloneMessageCopiesSlicesOnly pins CloneMessage to the ownership rule:
// the entry slice is the clone's own, the payloads in it are shared.
func TestCloneMessageCopiesSlicesOnly(t *testing.T) {
	e := Entry{Data: []byte("orig"), PID: ProposalID{Proposer: "p", Seq: 1}}
	m := AppendEntries{Entries: []Entry{e}}
	c, ok := CloneMessage(m).(AppendEntries)
	if !ok {
		t.Fatal("clone changed type")
	}
	c.Entries[0].Index = 7
	if m.Entries[0].Index != 0 {
		t.Fatal("CloneMessage aliases the entry slice")
	}
	if &c.Entries[0].Data[0] != &m.Entries[0].Data[0] {
		t.Fatal("CloneMessage copied entry data")
	}
}

func TestKindAndRoleStrings(t *testing.T) {
	if KindNormal.String() != "normal" || KindGlobalState.String() != "globalstate" {
		t.Fatal("kind strings")
	}
	if ApprovedSelf.String() != "self" || ApprovedLeader.String() != "leader" {
		t.Fatal("approval strings")
	}
	if RoleLeader.String() != "leader" || RoleCandidate.String() != "candidate" {
		t.Fatal("role strings")
	}
	if LayerLocal.String() != "local" || LayerGlobal.String() != "global" {
		t.Fatal("layer strings")
	}
	if EntryKind(99).String() == "" || Role(99).String() == "" {
		t.Fatal("unknown values must still render")
	}
}

func TestConfigEntryCarriesConfig(t *testing.T) {
	cfg := NewConfig("a", "b")
	e := ConfigEntry(cfg, ProposalID{})
	if e.Kind != KindConfig || e.Config == nil || !e.Config.Equal(cfg) {
		t.Fatalf("ConfigEntry = %+v", e)
	}
	// Mutating the source must not affect the entry.
	cfg.Members[0] = "z"
	if e.Config.Members[0] != "a" {
		t.Fatal("ConfigEntry aliases the config")
	}
}
