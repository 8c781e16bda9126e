package exp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/workload"
)

// Runner executes independent machine simulations through a bounded
// worker pool and memoizes canonical results by configuration.
//
// Every simulation the evaluation runs is a deterministic function of
// (protocol, cores, application profile, seed) — an embarrassingly
// parallel shape — so the runner fans submissions out to
// Parallelism() workers while Map preserves deterministic output
// ordering by submission index. Results for the canonical machine
// configuration (machine.DefaultConfig) are memoized: the Baseline
// runs behind Table IV, Table V, Fig. 6 and Fig. 7, and the WiDir runs
// behind Fig. 5 and the motivation measurements, are each simulated
// once per Runner no matter how many tables ask for them.
//
// The in-process memo can be backed by a persistent ResultCache
// (SetCache): on a memo miss the cache is consulted before simulating,
// and fresh results are written through, so a long-lived process — the
// widir-serve simulation farm — never re-simulates a canonical run any
// prior process already paid for.
//
// Memoized *machine.Result values are shared between callers and must
// be treated as immutable.
type Runner struct {
	parallel int
	sem      chan struct{}

	cache ResultCache

	mu   sync.Mutex
	memo map[RunKey]*memoCell

	sims          atomic.Uint64
	memoHits      atomic.Uint64
	inflightJoins atomic.Uint64
	cacheHits     atomic.Uint64
	cacheFills    atomic.Uint64
}

// RunKey identifies one canonical simulation: machine.DefaultConfig
// (Cores, Protocol) driving workload.Program(App, Cores, Seed). The
// full workload profile participates (not just the application name)
// so scaled variants — Options.Scale, Fig. 10's strong-scaling
// division — never collide. It is exported so persistent caches
// (internal/serve) can key storage by the same identity the memo uses.
type RunKey struct {
	Protocol coherence.Protocol
	Cores    int
	App      workload.Profile
	Seed     uint64
}

// ResultCache is a persistent result store consulted on memo misses
// and written through after fresh simulations. Implementations must be
// safe for concurrent use; Get must only return results that were
// stored for exactly the same key (the serve cache guarantees this by
// content-addressing entries with the canonical config+profile hash).
// Returned results are shared and must be treated as immutable.
type ResultCache interface {
	Get(k RunKey) (*machine.Result, bool)
	Put(k RunKey, res *machine.Result)
}

// Source says where a simulation result came from.
type Source uint8

const (
	// SourceSim is a freshly executed simulation.
	SourceSim Source = iota
	// SourceMemo is a hit in the runner's in-process memo (including
	// joining a duplicate already in flight).
	SourceMemo
	// SourceCache is a hit in the persistent ResultCache.
	SourceCache
)

// String names the source for stats output and job reports.
func (s Source) String() string {
	switch s {
	case SourceMemo:
		return "memo"
	case SourceCache:
		return "cache"
	default:
		return "sim"
	}
}

// RunnerStats is a snapshot of the runner's memoization counters.
type RunnerStats struct {
	Sims          uint64 `json:"sims"`           // simulations actually executed
	MemoHits      uint64 `json:"memo_hits"`      // served from a completed memo cell
	InflightJoins uint64 `json:"inflight_joins"` // waited on a duplicate in flight
	CacheHits     uint64 `json:"cache_hits"`     // served from the persistent cache
	CacheFills    uint64 `json:"cache_fills"`    // fresh results written through
}

// String renders the counters in the verbose-output form.
func (s RunnerStats) String() string {
	return fmt.Sprintf("sims=%d memo-hits=%d inflight-joins=%d cache-hits=%d cache-fills=%d",
		s.Sims, s.MemoHits, s.InflightJoins, s.CacheHits, s.CacheFills)
}

// memoCell is a singleflight slot: the first goroutine to claim the
// key simulates, concurrent duplicates wait on the sync.Once.
type memoCell struct {
	once    sync.Once
	settled atomic.Bool // set after once.Do completes (hit/join split)
	res     *machine.Result
	err     error
	src     Source // how the cell was filled: SourceSim or SourceCache
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
		memo:     make(map[RunKey]*memoCell),
	}
}

// Parallelism returns the worker-pool width.
func (r *Runner) Parallelism() int { return r.parallel }

// SetCache attaches a persistent result cache. Call before submitting
// work; the cache is consulted on every memo miss and filled after
// every fresh simulation.
func (r *Runner) SetCache(c ResultCache) { r.cache = c }

// Stats snapshots the memoization counters.
func (r *Runner) Stats() RunnerStats {
	return RunnerStats{
		Sims:          r.sims.Load(),
		MemoHits:      r.memoHits.Load(),
		InflightJoins: r.inflightJoins.Load(),
		CacheHits:     r.cacheHits.Load(),
		CacheFills:    r.cacheFills.Load(),
	}
}

// Reset drops every memoized result (for long-lived processes that
// want to bound the cache between invocations). Counters persist; they
// describe the runner's lifetime, not the current memo population.
func (r *Runner) Reset() {
	r.mu.Lock()
	r.memo = make(map[RunKey]*memoCell)
	r.mu.Unlock()
}

// Sim runs (or recalls) the canonical simulation for an application
// profile: machine.DefaultConfig(cores, p) driving
// workload.Program(app, cores, seed). Errors carry the app/protocol
// context and wrap the underlying cause, so errors.Is sees through
// them (e.g. to machine.ErrWatchdog).
func (r *Runner) Sim(p coherence.Protocol, cores int, app workload.Profile, seed uint64) (*machine.Result, error) {
	res, _, err := r.SimSource(p, cores, app, seed)
	return res, err
}

// SimSource is Sim plus provenance: whether the result came from a
// fresh simulation, the in-process memo, or the persistent cache. The
// simulation farm reports this per run so a cached sweep is visibly
// cached.
func (r *Runner) SimSource(p coherence.Protocol, cores int, app workload.Profile, seed uint64) (*machine.Result, Source, error) {
	key := RunKey{Protocol: p, Cores: cores, App: app, Seed: seed}
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
				cell.res, cell.src = res, SourceCache
				r.cacheHits.Add(1)
				return
			}
		}
		r.sims.Add(1)
		cfg := machine.DefaultConfig(cores, p)
		cell.res, cell.err = simulate(cfg, app, seed)
		cell.src = SourceSim
		if r.cache != nil && cell.err == nil {
			r.cache.Put(key, cell.res)
			r.cacheFills.Add(1)
		}
	})
	if cell.err != nil {
		return nil, cell.src, fmt.Errorf("%s/%s: %w", app.Name, p, cell.err)
	}
	src := cell.src
	if !created {
		src = SourceMemo
	}
	return cell.res, src, nil
}

// SimConfig runs an uncached simulation with a custom machine
// configuration (threshold sweeps, non-default machine parameters). The config's
// node count sizes the program; errors carry app/protocol context.
func (r *Runner) SimConfig(cfg machine.Config, app workload.Profile, seed uint64) (*machine.Result, error) {
	res, err := simulate(cfg, app, seed)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", app.Name, cfg.Protocol, err)
	}
	return res, nil
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

// defaultRunner backs Options values that name neither a Runner nor a
// Parallel width, so plain library calls still get pooled, memoized
// execution process-wide.
var (
	defaultRunnerOnce sync.Once
	defaultRunner     *Runner
)

func sharedRunner() *Runner {
	defaultRunnerOnce.Do(func() { defaultRunner = NewRunner(0) })
	return defaultRunner
}
