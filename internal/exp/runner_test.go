package exp

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/coherence"
	"repro/internal/machine"
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

	a, err := r.Sim(coherence.Baseline, 16, app, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Sim(coherence.Baseline, 16, app, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical configuration simulated twice (memo miss)")
	}

	// A different scale must not collide: the profile participates in
	// the key, not just the app name.
	c, err := r.Sim(coherence.Baseline, 16, app.Scale(0.5), 1)
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
		return r.SimConfig(cfg, app, 1)
	})
	if err == nil {
		t.Fatal("starved run did not fail")
	}
	if !errors.Is(err, machine.ErrWatchdog) {
		t.Fatalf("err = %v, want machine.ErrWatchdog in chain", err)
	}
}

// TestRunnerReset drops the memo.
func TestRunnerReset(t *testing.T) {
	r := NewRunner(1)
	app, _ := workload.ByName("radiosity")
	app = app.Scale(0.05)
	if _, err := r.Sim(coherence.WiDir, 16, app, 1); err != nil {
		t.Fatal(err)
	}
	if len(r.memo) == 0 {
		t.Fatal("memo empty after Sim")
	}
	r.Reset()
	if len(r.memo) != 0 {
		t.Fatal("memo survived Reset")
	}
}

// memCache is an in-memory ResultCache for hook tests.
type memCache struct {
	mu   sync.Mutex
	m    map[RunKey]*machine.Result
	gets int
	puts int
}

func newMemCache() *memCache { return &memCache{m: map[RunKey]*machine.Result{}} }

func (c *memCache) Get(k RunKey) (*machine.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	res, ok := c.m[k]
	return res, ok
}

func (c *memCache) Put(k RunKey, res *machine.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.m[k] = res
}

// TestRunnerStatsRepeatedSweep pins the memoization counters on a
// repeated sweep: the first pass simulates every (protocol, app) pair,
// the second is served entirely from the memo — the hit/miss counters
// the /stats endpoint and -v output surface must say exactly that.
func TestRunnerStatsRepeatedSweep(t *testing.T) {
	o := tinyOpts()
	o.Runner = NewRunner(4)

	rows, err := RunPairs(o)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(2 * len(rows)) // baseline + widir per app
	st := o.Runner.Stats()
	if st.Sims != n || st.MemoHits != 0 || st.CacheHits != 0 {
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
// runner sharing the first's cache serves every run from it — zero
// simulations — and returns results DeepEqual to the originals, with
// SimSource reporting the provenance.
func TestRunnerCacheHook(t *testing.T) {
	app, _ := workload.ByName("radiosity")
	app = app.Scale(0.05)
	cache := newMemCache()

	r1 := NewRunner(1)
	r1.SetCache(cache)
	orig, src, err := r1.SimSource(coherence.WiDir, 16, app, 1)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceSim {
		t.Fatalf("first run source = %v, want sim", src)
	}
	st := r1.Stats()
	if st.Sims != 1 || st.CacheFills != 1 {
		t.Fatalf("first runner stats = %v, want 1 sim / 1 fill", st)
	}

	// Same runner again: memo, not cache.
	_, src, err = r1.SimSource(coherence.WiDir, 16, app, 1)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceMemo {
		t.Fatalf("repeat source = %v, want memo", src)
	}

	// Fresh runner (a restarted process): served from the cache.
	r2 := NewRunner(1)
	r2.SetCache(cache)
	res, src, err := r2.SimSource(coherence.WiDir, 16, app, 1)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceCache {
		t.Fatalf("restarted source = %v, want cache", src)
	}
	if !reflect.DeepEqual(res, orig) {
		t.Fatal("cached result differs from the original simulation")
	}
	st = r2.Stats()
	if st.Sims != 0 || st.CacheHits != 1 {
		t.Fatalf("restarted runner stats = %v, want 0 sims / 1 cache hit", st)
	}
}
