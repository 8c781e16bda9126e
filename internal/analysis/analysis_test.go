package analysis

import (
	"strings"
	"testing"
)

// sharedLoader is reused across fixture tests so the standard-library
// source type-checking cost (time, math/rand, sort) is paid once.
var sharedLoader *Loader

func fixture(t *testing.T, path, src string) *Package {
	t.Helper()
	if sharedLoader == nil {
		root, err := FindModuleRoot(".")
		if err != nil {
			t.Fatal(err)
		}
		l, err := NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		sharedLoader = l
	}
	p, err := sharedLoader.LoadSource(path, "fixture.go", src)
	if err != nil {
		t.Fatalf("fixture did not parse: %v", err)
	}
	return p
}

// want asserts the findings' rule IDs and line numbers, in order.
func want(t *testing.T, got []Finding, rules map[int][]string) {
	t.Helper()
	found := map[int][]string{}
	for _, f := range got {
		found[f.Pos.Line] = append(found[f.Pos.Line], f.Rule)
	}
	for line, rs := range rules {
		if len(found[line]) != len(rs) {
			t.Errorf("line %d: want rules %v, got %v", line, rs, found[line])
			continue
		}
		for i, r := range rs {
			if found[line][i] != r {
				t.Errorf("line %d: want rules %v, got %v", line, rs, found[line])
			}
		}
	}
	for line, rs := range found {
		if _, ok := rules[line]; !ok {
			t.Errorf("unexpected finding(s) at line %d: %v", line, rs)
		}
	}
}

// TestMapIterAndFloatOrderBreakdownBug reproduces the PR 1
// stats.Breakdown regression: Total summed float64 values in map
// iteration order, so EnergyPJ varied in the last ulp between runs of
// the same seed. Both mapiter and floatorder must fire on the range.
func TestMapIterAndFloatOrderBreakdownBug(t *testing.T) {
	p := fixture(t, "repro/internal/stats", `package stats

type Breakdown struct {
	vals map[string]float64
}

func (b *Breakdown) Total() float64 {
	var t float64
	for _, v := range b.vals {
		t += v
	}
	return t
}
`)
	want(t, RunAll(p), map[int][]string{
		9:  {"mapiter"},
		10: {"floatorder"},
	})
}

// TestMapIterCleanSortedKeys is the fixed shape of the same code: keys
// collected and sorted first, accumulation over the slice.
func TestMapIterCleanSortedKeys(t *testing.T) {
	p := fixture(t, "repro/internal/stats", `package stats

import "sort"

type Breakdown struct {
	vals map[string]float64
}

func (b *Breakdown) Total() float64 {
	keys := make([]string, 0, len(b.vals))
	for k := range b.vals { //lint:deterministic key collection feeds the sort below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var t float64
	for _, k := range keys {
		t += b.vals[k]
	}
	return t
}
`)
	want(t, RunAll(p), map[int][]string{})
}

func TestMapIterScopedToSimPackages(t *testing.T) {
	src := `package main

func keys(m map[int]bool) (out []int) {
	for k := range m {
		out = append(out, k)
	}
	return
}
`
	if got := RunAll(fixture(t, "repro/cmd/widirsim", src)); len(got) != 0 {
		t.Errorf("cmd package should be out of mapiter scope, got %v", got)
	}
	if got := RunAll(fixture(t, "repro/internal/mesh", src)); len(got) != 1 {
		t.Errorf("sim package should be flagged once, got %v", got)
	}
}

func TestMapIterJustificationSuppresses(t *testing.T) {
	p := fixture(t, "repro/internal/cache", `package cache

// anyBusy is order-independent: it only asks whether any value is set.
func anyBusy(m map[int]bool) bool {
	//lint:deterministic any-of scan; result independent of order
	for _, v := range m {
		if v {
			return true
		}
	}
	return false
}
`)
	want(t, RunAll(p), map[int][]string{})
}

func TestWallTime(t *testing.T) {
	dirty := `package mesh

import "time"

var epoch time.Time

func stamp() float64 {
	epoch = time.Now()
	return time.Since(epoch).Seconds()
}
`
	p := fixture(t, "repro/internal/mesh", dirty)
	want(t, RunAll(p), map[int][]string{
		5: {"globalmut"}, // the fixture's epoch var is itself unregistered shared state
		8: {"walltime"},
		9: {"walltime"},
	})
	// The same source is fine in a cmd/ package (progress reporting).
	if got := RunAll(fixture(t, "repro/cmd/widir-experiments", dirty)); len(got) != 0 {
		t.Errorf("cmd package may read the wall clock, got %v", got)
	}
}

func TestWallTimeCleanDurationArithmetic(t *testing.T) {
	p := fixture(t, "repro/internal/engine", `package engine

import "time"

// Durations as config values are fine; only clock reads are flagged.
const tick = 10 * time.Millisecond

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
`)
	want(t, RunAll(p), map[int][]string{})
}

// TestWallTimeObsEventStamp pins the obs package into the determinism
// contract: an event stamped from the wall clock instead of the
// simulated cycle counter would make two serial captures of the same
// seed diverge, so walltime must reject it.
func TestWallTimeObsEventStamp(t *testing.T) {
	p := fixture(t, "repro/internal/obs", `package obs

import "time"

type event struct{ Cycle uint64 }

func stamp() event {
	return event{Cycle: uint64(time.Now().UnixNano())}
}
`)
	want(t, RunAll(p), map[int][]string{
		8: {"walltime"},
	})
	if !IsDeterministicPackage("repro/internal/obs") {
		t.Error("internal/obs must be under the determinism contract")
	}
}

func TestGlobalRand(t *testing.T) {
	p := fixture(t, "repro/internal/workload", `package workload

import "math/rand"

func pick(n int) int {
	rand.Seed(42)
	return rand.Intn(n)
}
`)
	want(t, RunAll(p), map[int][]string{
		6: {"globalrand"},
		7: {"globalrand"},
	})
}

func TestGlobalRandCleanExplicitSource(t *testing.T) {
	// Applies module-wide: even cmd/ must not touch the global source,
	// but an explicit seeded source is not global state.
	p := fixture(t, "repro/cmd/widirsim", `package main

import "math/rand"

func pick(n int) int {
	r := rand.New(rand.NewSource(1))
	return r.Intn(n)
}
`)
	want(t, RunAll(p), map[int][]string{})
}

func TestFloatOrderChannelAndRewriteForms(t *testing.T) {
	p := fixture(t, "repro/internal/energy", `package energy

func sum(ch chan float64, m map[int]float64) (a, b float64) {
	for v := range ch {
		a = a + v
	}
	for _, v := range m {
		b -= v
	}
	return a, b
}
`)
	want(t, RunAll(p), map[int][]string{
		5: {"floatorder"},
		7: {"mapiter"},
		8: {"floatorder"},
	})
}

func TestFloatOrderCleanIntegerAndSliceAccumulation(t *testing.T) {
	p := fixture(t, "repro/internal/energy", `package energy

func sum(xs []float64, m map[int]int) (a float64, n int) {
	for _, x := range xs {
		a += x // slice order is deterministic
	}
	//lint:deterministic integer addition is associative; order cannot change the sum
	for _, v := range m {
		n += v
	}
	return a, n
}
`)
	want(t, RunAll(p), map[int][]string{})
}

func TestGoNoSync(t *testing.T) {
	dirty := `package mesh

func fanOut(fns []func()) {
	done := make(chan struct{})
	for _, fn := range fns {
		go func() {
			fn()
			done <- struct{}{}
		}()
	}
	for range fns {
		<-done
	}
}
`
	p := fixture(t, "repro/internal/mesh", dirty)
	want(t, RunAll(p), map[int][]string{
		6: {"gonosync"},
	})
	// internal/exp owns the worker pool and is licensed.
	if got := RunAll(fixture(t, "repro/internal/exp", dirty)); len(got) != 0 {
		t.Errorf("internal/exp may spawn goroutines, got %v", got)
	}
}

// TestGoNoSyncClusterUnlicensed: the license names internal/exp only.
// A goroutine in any other package under internal/ — here one named
// after the retired multi-node layer — is flagged.
func TestGoNoSyncClusterUnlicensed(t *testing.T) {
	p := fixture(t, "repro/internal/cluster", `package cluster

func fanout(peers []string, fn func(string)) {
	for _, p := range peers {
		go fn(p)
	}
}
`)
	want(t, RunAll(p), map[int][]string{
		5: {"gonosync"},
	})
}

// TestGoNoSyncCoherenceStillFails: a goroutine smuggled into the
// protocol controllers — the classic "just parallelize the directory"
// mistake — must be flagged.
func TestGoNoSyncCoherenceStillFails(t *testing.T) {
	p := fixture(t, "repro/internal/coherence", `package coherence

func handleAsync(fn func()) {
	go fn()
}
`)
	want(t, RunAll(p), map[int][]string{
		4: {"gonosync"},
	})
}

// TestWallTimeExpStillCovered: the experiment layer computes and
// caches results, so the wall clock must not reach it — its goroutine
// license does not extend to walltime.
func TestWallTimeExpStillCovered(t *testing.T) {
	p := fixture(t, "repro/internal/exp", `package exp

import "time"

func stamp() time.Time { return time.Now() }
`)
	want(t, RunAll(p), map[int][]string{
		5: {"walltime"},
	})
}

// TestWallTimeMachineStillCovered: the simulator proper stays under
// the walltime rule.
func TestWallTimeMachineStillCovered(t *testing.T) {
	p := fixture(t, "repro/internal/machine", `package machine

import "time"

func now() int64 { return time.Now().UnixNano() }
`)
	want(t, RunAll(p), map[int][]string{
		5: {"walltime"},
	})
}

func TestFindingString(t *testing.T) {
	p := fixture(t, "repro/internal/mesh", `package mesh

func leak(m map[int]int) {
	for range m {
	}
}
`)
	got := RunAll(p)
	if len(got) != 1 {
		t.Fatalf("want 1 finding, got %v", got)
	}
	s := got[0].String()
	if !strings.Contains(s, "fixture.go:4:2") || !strings.Contains(s, "[mapiter]") {
		t.Errorf("finding rendering %q missing position or rule", s)
	}
}

// TestModuleIsClean runs the full rule set over every package of the
// module — the same gate `make lint` applies — locking in the fixes
// this suite's rules demanded (wireless collision bookkeeping,
// MemoryImage dump ordering, directory-eviction tie-breaks, ...).
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module lint type-checks the stdlib from source; slow")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ExpandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 15 {
		t.Fatalf("pattern expansion found only %d package dirs: %v", len(dirs), dirs)
	}
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, f := range RunAll(pkg) {
			t.Errorf("%s", f)
		}
	}
}

func TestFaultPackageUnderDeterminismContract(t *testing.T) {
	// The fault injector feeds the machine's cycle loop; a global rand
	// draw there would silently break faulty-run replay.
	if !IsDeterministicPackage("repro/internal/fault") {
		t.Error("internal/fault must be under the determinism contract")
	}
	p := fixture(t, "repro/internal/fault", `package fault

import "math/rand"

func corrupt(ber float64) bool {
	return rand.Float64() < ber
}

func draws(m map[int]float64) (s float64) {
	for _, v := range m {
		s += v
	}
	return s
}
`)
	want(t, RunAll(p), map[int][]string{
		6:  {"globalrand"},
		10: {"mapiter"},
		11: {"floatorder"},
	})
}
