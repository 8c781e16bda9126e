package exp

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestSerialParallelDeterminism is the regression gate for the worker
// pool: the same seed must produce identical machine.Result values
// whether the simulations run serially or across 8 workers. Each
// simulation is single-threaded and deterministic; the pool only
// changes which goroutine hosts it, so any divergence means shared
// mutable state leaked between simulations.
func TestSerialParallelDeterminism(t *testing.T) {
	o := tinyOpts()

	serial := o
	serial.Runner = NewRunner(1)
	sRows, err := RunPairs(serial)
	if err != nil {
		t.Fatal(err)
	}

	parallel := o
	parallel.Runner = NewRunner(8)
	pRows, err := RunPairs(parallel)
	if err != nil {
		t.Fatal(err)
	}

	if len(sRows) != len(pRows) {
		t.Fatalf("row counts differ: %d vs %d", len(sRows), len(pRows))
	}
	for i := range sRows {
		if sRows[i].App != pRows[i].App {
			t.Fatalf("row %d app order differs: %q vs %q", i, sRows[i].App, pRows[i].App)
		}
		if !reflect.DeepEqual(sRows[i].Base, pRows[i].Base) {
			t.Fatalf("%s Baseline result differs between serial and parallel runs", sRows[i].App)
		}
		if !reflect.DeepEqual(sRows[i].WiDir, pRows[i].WiDir) {
			t.Fatalf("%s WiDir result differs between serial and parallel runs", sRows[i].App)
		}
	}
}

// TestRunnerMemoization verifies identical configurations are simulated
// once: the memo returns the same *machine.Result pointer.
func TestRunnerMemoization(t *testing.T) {
	r := NewRunner(2)
	app, _ := workload.ByName("radiosity")
	app = app.Scale(0.05)

	cfg := machine.DefaultConfig(16, coherence.Baseline)
	a, err := r.Sim(cfg, app, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Sim(cfg, app, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical configuration simulated twice (memo miss)")
	}

	// A different scale must not collide: the profile participates in
	// the key, not just the app name.
	c, err := r.Sim(cfg, app.Scale(0.5), 1)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("scaled variant hit the unscaled memo entry")
	}
}

// TestRunnerMemoSharedAcrossExperiments checks the cross-table dedup
// the runner exists for: Table IV and Table V both need the Baseline
// runs, so a shared runner simulates them once.
func TestRunnerMemoSharedAcrossExperiments(t *testing.T) {
	o := tinyOpts()
	o.Runner = NewRunner(4)
	if _, err := Table4(o); err != nil {
		t.Fatal(err)
	}
	entries := len(o.Runner.memo)
	if _, err := Table5(o); err != nil {
		t.Fatal(err)
	}
	if got := len(o.Runner.memo); got != entries {
		t.Fatalf("Table5 added %d memo entries after Table4; Baseline runs were not shared", got-entries)
	}
}

// TestMapOrderingAndErrors verifies Map returns results in submission
// order regardless of completion order and aggregates every failure.
func TestMapOrderingAndErrors(t *testing.T) {
	r := NewRunner(4)
	out, err := Map(r, 16, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}

	sentinel := errors.New("boom")
	_, err = Map(r, 8, func(i int) (int, error) {
		if i%3 == 0 {
			return 0, fmt.Errorf("job %d: %w", i, sentinel)
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("aggregate err = %v, want wrapped sentinel", err)
	}
}

// TestWatchdogSurfacesThroughAggregate drives a deliberately starved
// simulation through the pool and checks errors.Is sees the machine
// watchdog through the app-context wrapping and errors.Join.
func TestWatchdogSurfacesThroughAggregate(t *testing.T) {
	r := NewRunner(2)
	app, _ := workload.ByName("radiosity")
	app = app.Scale(0.05)

	_, err := Map(r, 2, func(i int) (*machine.Result, error) {
		cfg := machine.DefaultConfig(16, coherence.WiDir)
		cfg.MaxCycles = 10 // far too few: the watchdog must trip
		return r.Sim(cfg, app, 1)
	})
	if err == nil {
		t.Fatal("starved run did not fail")
	}
	if !errors.Is(err, machine.ErrWatchdog) {
		t.Fatalf("err = %v, want machine.ErrWatchdog in chain", err)
	}
}

// TestRunnerStatsRepeatedSweep pins the memoization counters on a
// repeated sweep: the first pass simulates every (protocol, app) pair,
// the second is served entirely from the memo, and the counters the
// widir-experiments -v output surfaces must say exactly that.
func TestRunnerStatsRepeatedSweep(t *testing.T) {
	o := tinyOpts()
	o.Runner = NewRunner(4)

	rows, err := RunPairs(o)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(2 * len(rows)) // baseline + widir per app
	st := o.Runner.Stats()
	if st.Sims != n || st.MemoHits != 0 {
		t.Fatalf("first pass stats = %v, want sims=%d and no hits", st, n)
	}

	if _, err := RunPairs(o); err != nil {
		t.Fatal(err)
	}
	st = o.Runner.Stats()
	if st.Sims != n {
		t.Fatalf("repeated sweep re-simulated: sims=%d, want %d", st.Sims, n)
	}
	if st.MemoHits != n {
		t.Fatalf("repeated sweep memo hits = %d, want %d", st.MemoHits, n)
	}
}

// TestRunnerCacheHook verifies the persistent-cache hook: a second
// runner over the first's cache directory (a restarted process) serves
// every run from disk, with zero simulations, and returns results
// DeepEqual to the originals. Custom configs are cached like default
// ones.
func TestRunnerCacheHook(t *testing.T) {
	app, _ := workload.ByName("radiosity")
	app = app.Scale(0.05)
	cfg := machine.DefaultConfig(16, coherence.WiDir)
	cfg.MaxWiredSharers = 4
	cfg.MaxPointers = 4
	dir := t.TempDir()

	open := func() (*Runner, *Cache) {
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(1)
		r.SetCache(c)
		return r, c
	}
	r1, c1 := open()
	orig, err := r1.Sim(cfg, app, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st, cs := r1.Stats(), c1.Stats(); st.Sims != 1 || cs.Fills != 1 {
		t.Fatalf("first runner stats = %v / cache %v, want 1 sim / 1 fill", st, cs)
	}
	// Same runner again: memo, not cache.
	if _, err := r1.Sim(cfg, app, 1); err != nil {
		t.Fatal(err)
	}
	if st, cs := r1.Stats(), c1.Stats(); st.MemoHits != 1 || cs.Hits != 0 {
		t.Fatalf("repeat stats = %v / cache %v, want 1 memo hit / 0 cache hits", st, cs)
	}

	r2, c2 := open()
	res, err := r2.Sim(cfg, app, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, orig) {
		t.Fatal("cached result differs from the original simulation")
	}
	if st, cs := r2.Stats(), c2.Stats(); st.Sims != 0 || cs.Hits != 1 {
		t.Fatalf("restarted runner stats = %v / cache %v, want 0 sims / 1 cache hit", st, cs)
	}
}

// TestRunnerRejectsObserverHooks: observer hooks are not part of the
// result key, so a traced config must not be memoized or cached (its
// sink would silently receive nothing on a hit).
func TestRunnerRejectsObserverHooks(t *testing.T) {
	app, _ := workload.ByName("radiosity")
	cfg := machine.DefaultConfig(16, coherence.WiDir)
	cfg.Trace = obs.NewRingSink(16)
	r := NewRunner(1)
	if _, err := r.Sim(cfg, app.Scale(0.05), 1); !errors.Is(err, errObserved) {
		t.Fatalf("err = %v, want errObserved", err)
	}
	if st := r.Stats(); st.Sims != 0 {
		t.Fatalf("traced config simulated: %v", st)
	}
}
