// Command widir-serve runs the WiDir simulation farm: an HTTP/JSON
// service on one machine that executes canonical simulations on demand
// and persists every result in a content-addressed disk cache, so any
// sweep the farm has computed before — in this process or any earlier
// one — is served from disk without re-simulating. Accepted sweeps
// are journaled to <cache>/v1/queue.wal first, so a farm killed
// mid-sweep and restarted over the same cache dir finishes them under
// their original job ids (DESIGN.md §17).
//
// Usage:
//
//	widir-serve                          # listen on :8344, cache in ./widir-cache
//	widir-serve -addr :9000 -cache /var/lib/widir -workers 8 -queue 512
//	widir-serve -smoke                   # self-test: sim, restart, verify all-cached
//
// API (see DESIGN.md §16):
//
//	POST /api/v1/sweeps                        submit a sweep (202; 429+Retry-After when full)
//	GET  /api/v1/jobs/{id}                     job status
//	GET  /api/v1/jobs/{id}/stream              results as JSON lines, flushed as they complete
//	GET  /api/v1/runs/{hash}/artifacts/{name}  result.csv, trace.jsonl, trace.perfetto.json
//	GET  /api/v1/stats                         queue/runner/cache counters
//	GET  /healthz
//
// SIGINT/SIGTERM drain gracefully: admission stops (new sweeps get
// 503), queued runs finish, then the process exits.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8344", "listen address")
		cache    = flag.String("cache", "widir-cache", "content-addressed result cache directory")
		workers  = flag.Int("workers", 4, "simulation workers")
		queue    = flag.Int("queue", 256, "max queued runs across all clients")
		cacheMax = flag.Int64("cache-max-bytes", 0, "LRU cache budget in bytes (0 = unbounded)")
		smoke    = flag.Bool("smoke", false, "run the self-test (simulate, restart, verify the repeat sweep is fully cache-served) and exit")
	)
	flag.Parse()

	if *smoke {
		if err := runSmoke(); err != nil {
			fmt.Fprintf(os.Stderr, "widir-serve: smoke: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("widir-serve: smoke ok")
		return
	}

	s, err := serve.New(serve.Config{
		CacheDir:      *cache,
		Workers:       *workers,
		MaxQueue:      *queue,
		CacheMaxBytes: *cacheMax,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "widir-serve: %v\n", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "widir-serve: listening on %s, cache %s, %d workers, queue %d\n",
		*addr, *cache, *workers, *queue)

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "widir-serve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "widir-serve: draining (queued runs will finish; new sweeps get 503)")
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "widir-serve: %v\n", err)
		os.Exit(1)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	httpSrv.Shutdown(shutCtx)
	fmt.Fprintln(os.Stderr, "widir-serve: drained")
}

// runSmoke is the end-to-end self-test `make serve-smoke` runs in CI:
//
//	phase 1: fresh cache dir, submit a tiny sweep, stream it to
//	         completion — every run must be freshly simulated;
//	phase 2: a NEW server over the SAME cache dir (cold memo, warm
//	         disk), same sweep — every run must come from the cache,
//	         zero simulations, byte-identical results.
func runSmoke() error {
	dir, err := os.MkdirTemp("", "widir-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	sweep := serve.SweepRequest{
		Client:    "smoke",
		Protocols: []string{"baseline", "widir"},
		Apps:      []string{"water-spa"},
		Cores:     4,
		Scale:     0.02,
		Seeds:     []uint64{1},
	}

	// Phase 1: cold cache — everything simulates.
	first, err := smokePhase(dir, sweep, func(s *serve.Server, results []serve.RunStatus) error {
		for _, r := range results {
			if r.Source != "sim" {
				return fmt.Errorf("cold-cache run %s served from %q, want sim", r.Key.ID, r.Source)
			}
		}
		if st := s.Runner().Stats(); st.Sims != uint64(len(results)) {
			return fmt.Errorf("cold-cache phase ran %d sims for %d runs", st.Sims, len(results))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("phase 1: %w", err)
	}

	// Phase 2: new server, same cache dir — everything loads.
	second, err := smokePhase(dir, sweep, func(s *serve.Server, results []serve.RunStatus) error {
		for _, r := range results {
			if r.Source != "cache" {
				return fmt.Errorf("warm-cache run %s served from %q, want cache", r.Key.ID, r.Source)
			}
		}
		st := s.Runner().Stats()
		if st.Sims != 0 {
			return fmt.Errorf("warm-cache phase re-simulated %d runs", st.Sims)
		}
		if st.CacheHits != uint64(len(results)) {
			return fmt.Errorf("warm-cache phase: %d cache hits for %d runs", st.CacheHits, len(results))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("phase 2: %w", err)
	}

	if len(first) != len(second) {
		return fmt.Errorf("phase result counts differ: %d vs %d", len(first), len(second))
	}
	for hash, raw := range first {
		if !bytes.Equal(raw, second[hash]) {
			return fmt.Errorf("run %s: cached result is not byte-identical to the fresh simulation", hash[:12])
		}
	}
	fmt.Fprintf(os.Stderr, "widir-serve: smoke: %d runs simulated once, repeat served entirely from disk, byte-identical\n", len(first))
	return nil
}

// smokePhase boots a farm on a loopback port, submits the sweep,
// streams it to completion, runs the check, drains, and returns the
// result bytes by run hash.
func smokePhase(cacheDir string, sweep serve.SweepRequest, check func(*serve.Server, []serve.RunStatus) error) (map[string][]byte, error) {
	s, err := serve.New(serve.Config{CacheDir: cacheDir, Workers: 2, MaxQueue: 64})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Drain(ctx)
		httpSrv.Shutdown(ctx)
	}()

	data, err := json.Marshal(sweep)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/api/v1/sweeps", "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit: %s", resp.Status)
	}
	var body struct {
		Job string `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}

	stream, err := http.Get(base + "/api/v1/jobs/" + body.Job + "/stream")
	if err != nil {
		return nil, err
	}
	defer stream.Body.Close()
	out := map[string][]byte{}
	var results []serve.RunStatus
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var st serve.RunStatus
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			return nil, fmt.Errorf("bad stream line: %w", err)
		}
		if st.State != "done" {
			return nil, fmt.Errorf("run %s: state %s (%s)", st.Key.ID, st.State, st.Error)
		}
		results = append(results, st)
		out[st.Key.Hash] = st.Result
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("stream delivered no results")
	}
	if err := check(s, results); err != nil {
		return nil, err
	}
	return out, nil
}
