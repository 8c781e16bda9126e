package mcheck

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/protomodel"
)

func embeddedModel(t *testing.T) *protomodel.Model {
	t.Helper()
	spec, err := protomodel.EmbeddedSpec()
	if err != nil {
		t.Fatalf("EmbeddedSpec: %v", err)
	}
	return protomodel.ModelFromSpec(spec)
}

func explore(t *testing.T, cfg Config) *Result {
	t.Helper()
	ck, err := New(cfg, embeddedModel(t))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := ck.Explore()
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	return res
}

func wantCoverage(t *testing.T, res *Result, keys ...string) {
	t.Helper()
	for _, k := range keys {
		if res.Coverage[k] == 0 {
			t.Errorf("coverage %q = 0, want > 0 (have %s)", k,
				strings.Join(sortedCoverage(res.Coverage), " "))
		}
	}
}

// wantGraph pins the size and shape of an explored graph. The counts
// depend on the transition rules, the canonical encoding and the BFS
// order, so a refactor of any of them that changes the search shows
// here even when the model still explores clean.
func wantGraph(t *testing.T, res *Result, states, edges, depth, quiescent int) {
	t.Helper()
	if res.States != states || res.Edges != edges || res.MaxDepth != depth || res.Quiescent != quiescent {
		t.Errorf("explored %d states, %d edges, depth %d, %d quiescent; want %d, %d, %d, %d",
			res.States, res.Edges, res.MaxDepth, res.Quiescent, states, edges, depth, quiescent)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	model := embeddedModel(t)
	bad := []Config{
		{L1s: 1, Lines: 1, Values: 1, Reorder: 1, OpBudget: 4, MaxWiredSharers: 1, UpdateCountMax: 1, FaultDemoteAfter: 1},
		{L1s: 3, Lines: 3, Values: 1, Reorder: 1, OpBudget: 4, MaxWiredSharers: 1, UpdateCountMax: 1, FaultDemoteAfter: 1},
		{L1s: 3, Lines: 1, Values: 0, Reorder: 1, OpBudget: 4, MaxWiredSharers: 1, UpdateCountMax: 1, FaultDemoteAfter: 1},
		{L1s: 3, Lines: 1, Values: 1, Reorder: 0, OpBudget: 4, MaxWiredSharers: 1, UpdateCountMax: 1, FaultDemoteAfter: 1},
		{L1s: 3, Lines: 1, Values: 1, Reorder: 1, OpBudget: 0, MaxWiredSharers: 1, UpdateCountMax: 1, FaultDemoteAfter: 1},
		{L1s: 3, Lines: 1, Values: 1, Reorder: 1, OpBudget: 4, MaxWiredSharers: 3, UpdateCountMax: 1, FaultDemoteAfter: 1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, model); err == nil {
			t.Errorf("config %d: New accepted invalid config %+v", i, cfg)
		}
	}
	if _, err := New(DefaultConfig(), model); err != nil {
		t.Errorf("New rejected DefaultConfig: %v", err)
	}
}

// TestTwoCoreClean exhaustively explores a two-core model deep enough
// to reach the full wireless round trip: S->W upgrade, wireless
// stores, UpdateCount decay, and the W->S demotion handshake.
func TestTwoCoreClean(t *testing.T) {
	cfg := Config{
		L1s: 2, Lines: 1, Values: 2, Reorder: 2, OpBudget: 5,
		MaxWiredSharers: 1, UpdateCountMax: 2, FaultDemoteAfter: 2,
		DirEvict: true,
	}
	res := explore(t, cfg)
	if !res.Clean() {
		t.Fatalf("violation: %v\npath:\n  %s", res.Violation, strings.Join(res.Violation.Path, "\n  "))
	}
	wantGraph(t, res, 29_859, 66_069, 29, 330)
	const coverage = "air:BrWirUpgr=502 air:WirDwgr=45 air:WirInv=13 air:WirUpd=148 decay=8 " +
		"defer=2446 dir-evict=2086 dir:DI=3569 dir:DO=2889 dir:DS=495 dir:DW=95 " +
		"dir:busy:evict=1694 dir:busy:fetch-mem=1587 dir:busy:fwd-gets=432 " +
		"dir:busy:fwd-getx=903 dir:busy:inv-all=458 dir:busy:s-to-w=230 " +
		"dir:busy:w-to-s=65 jam=340 l1:E=885 l1:I=3927 l1:M=2981 l1:S=1673 l1:W=710 " +
		"nack=3824 nack-retry=8836 stow-commit=95 stow-start=230 tone=449 tone-fill=90 " +
		"use-once=2020 victim-serve=594 wdiscard=44 wq:upd=746 wtos-commit=45 wtos-start=65"
	if got := strings.Join(res.SortedCoverage(), " "); got != coverage {
		t.Errorf("coverage:\n got %s\nwant %s", got, coverage)
	}
	wantCoverage(t, res,
		"air:BrWirUpgr", "tone", "stow-commit", // S->W upgrade handshake
		"air:WirUpd", "decay", // wireless stores and self-invalidation
		"air:WirDwgr", "wtos-start", "wtos-commit", // W->S demotion
		"dir-evict", "victim-serve", "nack",
	)
}

// TestDefaultModelClean is the full CI model (~1M canonical states,
// under half a minute): every invariant family over every protocol
// regime, including the three-core races that need a third identity (a
// stale sharer upgrade bouncing off WDiscard, a deposed owner's put
// reaching the count-only DW state, use-once grants passed by
// invalidations). Its graph is pinned like TestTwoCoreClean's.
func TestDefaultModelClean(t *testing.T) {
	if testing.Short() {
		t.Skip("default model is ~1M states; run without -short")
	}
	res := explore(t, DefaultConfig())
	if !res.Clean() {
		t.Fatalf("violation: %v\npath:\n  %s", res.Violation, strings.Join(res.Violation.Path, "\n  "))
	}
	wantGraph(t, res, 998_119, 2_744_173, 39, 1_674)
	wantCoverage(t, res,
		"stow-commit", "wtos-commit", "decay", "dir-evict", "defer",
		"use-once", "wdiscard", "wdiscard-ds", "stale-put-dw",
		"tone-fill", "victim-serve", "nack-retry",
	)
}

// TestFaultModeClean enables the wireless-corruption transitions and
// checks the PR 4 recovery rules hold: a corrupted unprivileged store
// bounces to a wired retry, and repeated strikes demote the line W->S.
func TestFaultModeClean(t *testing.T) {
	cfg := Config{
		L1s: 2, Lines: 1, Values: 2, Reorder: 2, OpBudget: 5,
		MaxWiredSharers: 1, UpdateCountMax: 2, FaultDemoteAfter: 1,
		Fault: true, DirEvict: true,
	}
	res := explore(t, cfg)
	if !res.Clean() {
		t.Fatalf("violation: %v\npath:\n  %s", res.Violation, strings.Join(res.Violation.Path, "\n  "))
	}
	wantCoverage(t, res, "fault", "fault-demote", "wtos-commit")
}

// TestMissingSpecRowCaught seeds the conformance direction: deleting
// the spec row that sanctions the W->S commit (busy:w-to-s WirDwgrAck
// -> DS) must surface as a relation violation with a replayable trace.
func TestMissingSpecRowCaught(t *testing.T) {
	spec, err := protomodel.EmbeddedSpec()
	if err != nil {
		t.Fatalf("EmbeddedSpec: %v", err)
	}
	rows := spec.Machines["dir"]
	kept := rows[:0]
	dropped := 0
	for _, r := range rows {
		if r.From == "busy:w-to-s" && r.Event == "WirDwgrAck" && r.Next == "DS" {
			dropped++
			continue
		}
		kept = append(kept, r)
	}
	if dropped != 1 {
		t.Fatalf("dropped %d rows, want 1 (spec layout changed?)", dropped)
	}
	spec.Machines["dir"] = kept

	cfg := Config{
		L1s: 2, Lines: 1, Values: 1, Reorder: 2, OpBudget: 5,
		MaxWiredSharers: 1, UpdateCountMax: 2, FaultDemoteAfter: 2,
		DirEvict: true,
	}
	ck, err := New(cfg, protomodel.ModelFromSpec(spec))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := ck.Explore()
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	v := res.Violation
	if v == nil {
		t.Fatal("mutated spec explored clean; the checker is not validating hops")
	}
	if v.Kind != "relation" {
		t.Fatalf("violation kind = %q, want relation (%v)", v.Kind, v)
	}
	if !strings.Contains(v.Msg, "WirDwgrAck") {
		t.Errorf("violation does not name the event: %v", v)
	}
	wantPath := []string{
		"issue load core=0 line=0", "recv 1->2", "recv 2->3", "recv 3->2", "recv 2->1",
		"issue load core=0 line=0", "recv 0->2", "recv 2->1", "recv 1->0", "recv 0->2",
		"evict-l1 core=0 line=0", "recv 0->2", "recv 2->0", "issue load core=0 line=0",
		"recv 0->2", "recv 2->0", "air BrWirUpgr sender=-1 line=0", "tone-commit line=0",
		"evict-l1 core=0 line=0", "recv 0->2", "recv 2->0", "air WirDwgr sender=-1 line=0",
		"recv 1->2",
	}
	if got, want := strings.Join(v.Path, "\n  "), strings.Join(wantPath, "\n  "); got != want {
		t.Errorf("violation path:\n  %s\nwant:\n  %s", got, want)
	}

	events := ck.Counterexample(v)
	if len(events) == 0 {
		t.Fatal("counterexample replay produced no obs events")
	}
	var jl, pf bytes.Buffer
	if err := obs.WriteJSONL(&jl, events); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if err := obs.WritePerfetto(&pf, events); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	if jl.Len() == 0 || pf.Len() == 0 {
		t.Fatal("empty trace artifacts")
	}
}

// determinismConfig is TestDeterminism's model: 2 L1s, budget 4, about
// six thousand states.
var determinismConfig = Config{
	L1s: 2, Lines: 1, Values: 2, Reorder: 2, OpBudget: 4,
	MaxWiredSharers: 1, UpdateCountMax: 2, FaultDemoteAfter: 2,
	DirEvict: true,
}

// TestDeterminism: identical configs must explore identical graphs and
// coverage — the canonical encoding and BFS order are deterministic.
func TestDeterminism(t *testing.T) {
	cfg := determinismConfig
	a := explore(t, cfg)
	b := explore(t, cfg)
	if a.States != b.States || a.Edges != b.Edges || a.MaxDepth != b.MaxDepth || a.Quiescent != b.Quiescent {
		t.Fatalf("runs diverge: %+v vs %+v", a, b)
	}
	ca := strings.Join(sortedCoverage(a.Coverage), " ")
	cb := strings.Join(sortedCoverage(b.Coverage), " ")
	if ca != cb {
		t.Fatalf("coverage diverges:\n%s\n%s", ca, cb)
	}
}

// TestFamilyVerdicts covers the reporting helpers.
func TestFamilyVerdicts(t *testing.T) {
	r := &Result{}
	for f, v := range r.FamilyVerdicts() {
		if v != "clean" {
			t.Errorf("family %s = %q on a clean result", f, v)
		}
	}
	r.Violation = &Violation{Kind: "swmr", Msg: "boom"}
	if got := r.FamilyVerdicts()["swmr"]; got != "boom" {
		t.Errorf("swmr verdict = %q, want boom", got)
	}
	if r.Clean() {
		t.Error("Clean() true with a violation")
	}
}

// TestCodecRoundTrip checks decode against encode on every state the
// search dequeues: the frontier holds keys, not states, so a field
// decode forgot would silently change the explored graph. Decoding
// into one reused state, as Explore does, also catches a field decode
// leaves at its previous value. Each decoded state is its own canonical
// form, so canonicalizing it again must give back its key. The fault
// variant reaches deferred puts, victim buffers and a non-empty
// wireless queue, which the round trip must cover.
func TestCodecRoundTrip(t *testing.T) {
	fault := determinismConfig
	fault.Fault = true
	for _, cfg := range []Config{determinismConfig, fault} {
		ck, err := New(cfg, embeddedModel(t))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		s := new(state)
		var keys, deferred, victims, queued int
		res, err := ck.explore(func(key string) {
			keys++
			s.decode(cfg, key)
			if got := s.encode(nil); string(got) != key {
				t.Fatalf("decode/encode round trip:\n got %x\nwant %x", got, key)
			}
			if got := ck.canonical(s); string(got) != key {
				t.Fatalf("decoded state is not canonical:\n got %x\nwant %x", got, key)
			}
			for _, d := range s.dir {
				deferred += len(d.deferred)
			}
			for _, L := range s.l1 {
				if L.vic {
					victims++
				}
			}
			queued += len(s.wq)
		})
		if err != nil {
			t.Fatalf("Explore: %v", err)
		}
		if keys != res.States {
			t.Errorf("Fault=%v: %d keys dequeued, %d states explored", cfg.Fault, keys, res.States)
		}
		if deferred == 0 || victims == 0 || queued == 0 {
			t.Errorf("Fault=%v: round trip saw %d deferred puts, %d victims, %d queued broadcasts; want all > 0",
				cfg.Fault, deferred, victims, queued)
		}
	}
}

// TestExploreConcurrent runs two Checkers in one process at once. Each
// owns its scratch, so their results must equal sequential runs of
// the same configs; under -race (make race) any shared mutable state
// between them is a failure. The concurrent runs go first, so state a
// package filled lazily on first use would be written by both.
func TestExploreConcurrent(t *testing.T) {
	three := determinismConfig
	three.L1s, three.OpBudget = 3, 3
	cfgs := []Config{determinismConfig, three}
	model := embeddedModel(t)
	got := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		ck, err := New(cfg, model)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = ck.Explore()
		}()
	}
	wg.Wait()
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = explore(t, cfg)
	}
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("L1s=%d: Explore: %v", cfgs[i].L1s, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("L1s=%d: concurrent run %+v, sequential %+v", cfgs[i].L1s, got[i], want[i])
		}
	}
}

// TestExploreAllocBudget puts a ceiling on the heap objects one Explore
// of TestDeterminism's model allocates (6,279 states, 12,599 edges).
// The search allocates per new state (its key, and its share of the
// growth of the visited map, the node, edge and frontier slices and
// the free list), not per successor or per permutation: one Explore
// allocated about 648,700 objects when the frontier held whole states
// and every candidate key was a string, and one allocation per
// successor would add 12,599. A directory entry keeps its deferred-put
// array across an eviction and a replay; dropping it cost about 680
// more. It measures in a fresh process (the test binary re-run with
// -test.run and a positional argument), as the machine package's
// budgets do, because the count jitters with the maps' random hash
// seeds. The ceiling is the maximum seen plus the spread seen over
// fresh processes on linux/amd64 with go1.24: 6,539–6,548 over 130.
// Another Go release may allocate differently; re-measure there.
func TestExploreAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime bookkeeping allocates nondeterministically")
	}
	if flag.Arg(0) != exploreAllocChild {
		out, err := exec.Command(os.Args[0], "-test.run=^TestExploreAllocBudget$", "-test.v", exploreAllocChild).CombinedOutput()
		t.Logf("fresh process:\n%s", out)
		if err != nil {
			t.Fatalf("fresh process: %v", err)
		}
		return
	}
	const ceiling = 6_548 + 9
	ck, err := New(determinismConfig, embeddedModel(t))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := ck.Explore()
	runtime.ReadMemStats(&after)
	if err != nil || !res.Clean() {
		t.Fatalf("Explore: %v, %v", err, res.Violation)
	}
	n := after.Mallocs - before.Mallocs
	t.Logf("one Explore allocates %d objects", n)
	if n > ceiling {
		t.Errorf("one Explore allocates %d objects, ceiling %d", n, ceiling)
	}
}

// exploreAllocChild, as the test binary's first positional argument,
// makes TestExploreAllocBudget measure in its own process rather than
// start a fresh one.
const exploreAllocChild = "explore-alloc-child"
