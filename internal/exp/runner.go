package exp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/workload"
)

// Runner executes independent machine simulations through a bounded
// worker pool and memoizes their results.
//
// Every simulation the evaluation runs is a deterministic function of
// (machine config, application profile, seed), an embarrassingly
// parallel shape, so the runner fans submissions out across its worker
// pool while Map preserves deterministic output ordering by submission
// index. Results are memoized by content address (simKey):
// the Baseline runs behind Table IV, Table V, Fig. 6 and Fig. 7, and
// the WiDir runs behind Fig. 5 and the motivation measurements, are
// each simulated once per Runner no matter how many tables ask for
// them.
//
// The memo can be backed by a persistent Cache (SetCache) under the
// same key: on a memo miss the cache is consulted before simulating,
// and fresh results are written through, so a later process never
// re-simulates a run an earlier one already paid for.
//
// Memoized *machine.Result values are shared between callers and must
// be treated as immutable.
type Runner struct {
	parallel int
	sem      chan struct{}

	cache *Cache

	mu   sync.Mutex
	memo map[string]*memoCell

	sims          atomic.Uint64
	memoHits      atomic.Uint64
	inflightJoins atomic.Uint64
}

// RunnerStats is a snapshot of the runner's memoization counters. The
// persistent cache's own traffic is in Cache.Stats.
type RunnerStats struct {
	Sims          uint64 // simulations actually executed
	MemoHits      uint64 // served from a completed memo cell
	InflightJoins uint64 // waited on a duplicate in flight
}

// String renders the counters in the verbose-output form.
func (s RunnerStats) String() string {
	return fmt.Sprintf("sims=%d memo-hits=%d inflight-joins=%d", s.Sims, s.MemoHits, s.InflightJoins)
}

// memoCell is a singleflight slot: the first goroutine to claim the
// key simulates, concurrent duplicates wait on the sync.Once.
type memoCell struct {
	once    sync.Once
	settled atomic.Bool // set after once.Do completes (hit/join split)
	res     *machine.Result
	err     error
}

// NewRunner builds a runner with the given worker-pool width.
// parallel <= 0 selects runtime.GOMAXPROCS(0); parallel == 1 runs
// every simulation serially on the submitting goroutine's schedule.
func NewRunner(parallel int) *Runner {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		parallel: parallel,
		sem:      make(chan struct{}, parallel),
		memo:     make(map[string]*memoCell),
	}
}

// SetCache attaches a persistent result cache. Call before submitting
// work; the cache is consulted on every memo miss and filled after
// every fresh simulation.
func (r *Runner) SetCache(c *Cache) { r.cache = c }

// Stats snapshots the memoization counters.
func (r *Runner) Stats() RunnerStats {
	return RunnerStats{
		Sims:          r.sims.Load(),
		MemoHits:      r.memoHits.Load(),
		InflightJoins: r.inflightJoins.Load(),
	}
}

// errObserved rejects configs carrying observer hooks: the hooks are
// not part of the result key, so a memoized or cached result would
// silently skip them.
var errObserved = errors.New("exp: Runner.Sim takes no observer hooks (Trace, Core.Trace); build a machine.System for a traced run")

// Sim runs (or recalls) one simulation: cfg driving
// workload.Program(app, cfg.Nodes, seed). Results are memoized in
// process and, with SetCache, on disk, both under simKey(cfg, app,
// seed). Errors carry the app/protocol context and wrap the underlying
// cause, so errors.Is sees through them (e.g. to machine.ErrWatchdog).
func (r *Runner) Sim(cfg machine.Config, app workload.Profile, seed uint64) (*machine.Result, error) {
	res, err := r.sim(cfg, app, seed)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", app.Name, cfg.Protocol, err)
	}
	return res, nil
}

func (r *Runner) sim(cfg machine.Config, app workload.Profile, seed uint64) (*machine.Result, error) {
	if cfg.Trace != nil || cfg.Core.Trace != nil {
		return nil, errObserved
	}
	key, err := simKey(cfg, app, seed)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	cell := r.memo[key]
	created := cell == nil
	if created {
		cell = &memoCell{}
		r.memo[key] = cell
	}
	r.mu.Unlock()
	if !created {
		if cell.settled.Load() {
			r.memoHits.Add(1)
		} else {
			r.inflightJoins.Add(1)
		}
	}
	cell.once.Do(func() {
		defer cell.settled.Store(true)
		if r.cache != nil {
			if res, ok := r.cache.Get(key); ok {
				cell.res = res
				return
			}
		}
		r.sims.Add(1)
		cell.res, cell.err = simulate(cfg, app, seed)
		// Best effort: a failed fill only costs a later re-simulation.
		if r.cache != nil && cell.err == nil {
			r.cache.Put(key, cell.res)
		}
	})
	return cell.res, cell.err
}

func simulate(cfg machine.Config, app workload.Profile, seed uint64) (*machine.Result, error) {
	sys, err := machine.NewSystem(cfg, workload.Program(app, cfg.Nodes, seed))
	if err != nil {
		return nil, err
	}
	return sys.Run()
}

// Map runs fn(0..n-1) across the runner's worker pool and returns the
// results in submission-index order — worker interleaving never
// reorders output. All failures are aggregated into one error
// (errors.Join), each retaining its wrapped chain for errors.Is.
func Map[T any](r *Runner, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	if r.parallel == 1 {
		// Serial fast path: no goroutines, deterministic submission order.
		var errs []error
		for i := 0; i < n; i++ {
			var err error
			out[i], err = fn(i)
			if err != nil {
				errs = append(errs, err)
			}
		}
		return out, errors.Join(errs...)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			r.sem <- struct{}{}
			defer func() { <-r.sem }()
			out[i], errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// defaultRunner backs Options values that name no Runner, so plain
// library calls still get pooled, memoized execution process-wide.
var (
	defaultRunnerOnce sync.Once
	defaultRunner     *Runner
)

func sharedRunner() *Runner {
	defaultRunnerOnce.Do(func() { defaultRunner = NewRunner(0) })
	return defaultRunner
}
