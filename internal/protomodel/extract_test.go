package protomodel

import (
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

var (
	repoOnce  sync.Once
	repoModel *Model
	repoErr   error
)

// extractRepo extracts the real internal/coherence protocol once per
// test binary.
func extractRepo(t *testing.T) *Model {
	t.Helper()
	repoOnce.Do(func() {
		cwd, err := os.Getwd()
		if err != nil {
			repoErr = err
			return
		}
		moduleDir, err := analysis.FindModuleRoot(cwd)
		if err != nil {
			repoErr = err
			return
		}
		repoModel, repoErr = Extract(moduleDir, moduleDir+"/internal/coherence", WiDirConfig())
	})
	if repoErr != nil {
		t.Fatalf("extracting internal/coherence: %v", repoErr)
	}
	return repoModel
}

// TestTableIISpotChecks pins known WiDir protocol transitions (paper
// Table I/II, DESIGN.md) to the extracted model, each with provenance
// in the file that implements it.
func TestTableIISpotChecks(t *testing.T) {
	model := extractRepo(t)
	checks := []struct {
		machine, from, event, next, file string
	}{
		// Directory: read sharing and the S->W upgrade decision.
		{"dir", "DI", "GetS", "busy:fetch-mem", "internal/coherence/home.go"},
		{"dir", "DS", "GetS", "busy:s-to-w", "internal/coherence/home.go"},
		// W-state wireless path: the broadcast upgrade commits DW.
		{"dir", "busy:s-to-w", "GetS", "DW", "internal/coherence/home.go"},
		// Fault recovery: repeated wireless faults demote W->S.
		{"dir", "DW", "WirelessFault", "busy:w-to-s", "internal/coherence/home.go"},
		{"dir", "busy:w-to-s", "WirDwgrAck", "DS", "internal/coherence/home.go"},
		// Ownership transfer.
		{"dir", "DO", "GetS", "busy:fwd-gets", "internal/coherence/home.go"},
		{"dir", "busy:fwd-gets", "CopyBack", "DS", "internal/coherence/home.go"},
		{"dir", "busy:fwd-getx", "XferAck", "DO", "internal/coherence/home.go"},
		// L1: joining a broadcast group, update decay, downgrade.
		{"l1", "S", "BrWirUpgr", "W", "internal/coherence/l1.go"},
		{"l1", "W", "WirUpd", "I", "internal/coherence/l1.go"},
		{"l1", "W", "WirDwgr", "S", "internal/coherence/l1.go"},
		{"l1", "S", "Inv", "I", "internal/coherence/l1.go"},
		{"l1", "E", "FwdGetX", "I", "internal/coherence/l1.go"},
	}
	for _, c := range checks {
		mc := model.Machine(c.machine)
		if mc == nil {
			t.Fatalf("machine %q missing", c.machine)
		}
		found := false
		for _, tr := range mc.Lookup(c.from, c.event) {
			if tr.Next != c.next {
				continue
			}
			found = true
			if !strings.HasPrefix(tr.Pos, c.file+":") {
				t.Errorf("%s: %s %s -> %s: provenance %q, want file %s",
					c.machine, c.from, c.event, c.next, tr.Pos, c.file)
			}
		}
		if !found {
			t.Errorf("%s: missing transition %s %s -> %s", c.machine, c.from, c.event, c.next)
		}
	}
}

// TestDirCoverageGrid requires the extracted directory FSM to cover
// every DirState x handled-message pair of home.go, with provenance on
// every row.
func TestDirCoverageGrid(t *testing.T) {
	model := extractRepo(t)
	mc := model.Machine("dir")
	if mc == nil {
		t.Fatal("dir machine missing")
	}
	handled := []string{
		"GetS", "GetX", "PutS", "PutE", "PutM", "PutW",
		"InvAck", "CopyBack", "XferAck", "RecallAck",
		"WirUpgrAck", "WirDwgrAck", "MemData",
	}
	for _, ev := range handled {
		for _, st := range mc.Stable {
			if !mc.Covered(st, ev) {
				t.Errorf("dir: (%s, %s) not covered", st, ev)
			}
		}
	}
	for _, tr := range mc.Transitions {
		if !strings.Contains(tr.Pos, ":") {
			t.Errorf("dir: %s %s -> %s has no provenance (%q)", tr.From, tr.Event, tr.Next, tr.Pos)
		}
	}
}

// TestRepoConformsToSpec gates the checked-in spec against the
// implementation, as `widir-mcheck` does.
func TestRepoConformsToSpec(t *testing.T) {
	model := extractRepo(t)
	spec, err := EmbeddedSpec()
	if err != nil {
		t.Fatalf("embedded spec: %v", err)
	}
	for _, f := range Check(model, spec) {
		t.Errorf("conformance: %s", f)
	}
}

// TestBusyNamesMatchStringer pins the dir machine's state vocabulary;
// the busy:<kind> names mirror txnKind.String() in
// internal/coherence/errors.go (the config's Rename table).
func TestBusyNamesMatchStringer(t *testing.T) {
	model := extractRepo(t)
	mc := model.Machine("dir")
	if mc == nil {
		t.Fatal("dir machine missing")
	}
	want := []string{
		"DI", "DS", "DO", "DW",
		"busy:fetch-mem", "busy:fwd-gets", "busy:fwd-getx", "busy:inv-all",
		"busy:s-to-w", "busy:w-add-sharer", "busy:w-to-s", "busy:evict",
	}
	if got := strings.Join(mc.States, " "); got != strings.Join(want, " ") {
		t.Errorf("dir states = %q, want %q", got, strings.Join(want, " "))
	}
}

// TestModelDeterministic extracts twice and requires byte-identical
// renderings (text and dot).
func TestModelDeterministic(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	moduleDir, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Extract(moduleDir, moduleDir+"/internal/coherence", WiDirConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := extractRepo(t)
	if a.Text() != b.Text() {
		t.Error("two extractions render different text tables")
	}
	if a.Dot() != b.Dot() {
		t.Error("two extractions render different dot graphs")
	}
	if !strings.HasPrefix(a.Dot(), "digraph \"dir\"") {
		t.Errorf("dot output does not start with the dir digraph: %q", a.Dot()[:40])
	}
}
