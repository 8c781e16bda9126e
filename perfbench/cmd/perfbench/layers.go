package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"repro/internal/coherence"
	"repro/internal/obs"
	"repro/internal/stats"
)

// perLayer computes the per-layer metrics of a traced run. Counts are
// per pass (every untraced pass simulates the same inputs); timings are
// medians over the untraced passes or spans; host shares come from the
// profiled pass, obs counts and obs.overhead from the traced pass.
func perLayer(spans []span, passes []passResult, traced *passResult, counts *countSink, shares map[string]float64) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	runS := medianOf(passes, func(p passResult) float64 { return p.runS(nil) })

	// Simulated counters, summed over the first pass's sims.
	var cycles, coreCycles, retired, stall, accesses, hits, misses, nacks, invs, stow, upds,
		packets, attempts, colls float64
	missLat, hops := (*stats.Histogram)(nil), (*stats.Histogram)(nil)
	var mpkiErr float64
	sims, baselines := 0, 0
	var states, edges, allocs, allocBytes, gcs float64
	for _, s := range passes[0].samples {
		allocs += float64(s.allocs)
		allocBytes += float64(s.bytes)
		gcs += float64(s.gcs)
		if r := s.res; r != nil {
			sims++
			cycles += float64(r.Cycles)
			coreCycles += float64(r.Cycles) * float64(r.Nodes)
			retired += float64(r.Retired)
			stall += float64(r.MemStallCycles)
			accesses += float64(r.L1Accesses)
			hits += float64(r.L1Hits)
			misses += float64(r.L1LoadMisses + r.L1StoreMisses)
			nacks += float64(r.NACKs)
			invs += float64(r.Invalidations)
			stow += float64(r.SToW)
			upds += float64(r.UpdatesReceived)
			packets += float64(r.MeshPackets)
			attempts += float64(r.WirelessAttempts)
			colls += float64(r.WirelessCollisions)
			missLat = merge(missLat, r.MissLatency)
			hops = merge(hops, r.HopsPerLeg)
			if r.Protocol == coherence.Baseline && s.op.prof.PaperMPKI > 0 {
				baselines++
				mpkiErr += math.Abs(r.MPKI()-s.op.prof.PaperMPKI) / s.op.prof.PaperMPKI
			}
		}
		if r := s.mres; r != nil {
			states += float64(r.States)
			edges += float64(r.Edges)
		}
	}
	ops := float64(len(passes[0].samples))

	put("workload.program_s", spanMedian(spans, "workload.Program"), "s")
	put("workload.instrs", ratio(retired, float64(sims)), "count")
	put("machine.newsystem_s", spanMedian(spans, "machine.NewSystem"), "s")
	put("machine.sim_cycles", cycles, "cycles")
	put("machine.ns_per_cycle", ratio(runS*1e9, cycles), "ns")
	put("machine.baseline_run_s", medianOf(passes, func(p passResult) float64 { return p.runS(isBaseline) }), "s")
	put("machine.widir_run_s", medianOf(passes, func(p passResult) float64 { return p.runS(isWiDir) }), "s")
	put("cpu.retired", retired, "count")
	put("cpu.sim_mips", ratio(retired/1e6, runS), "Minstr/s")
	put("cpu.mem_stall_frac", ratio(stall, coreCycles), "ratio")
	put("cache.l1_accesses", accesses, "count")
	put("cache.l1_hit_ratio", ratio(hits, accesses), "ratio")
	put("coherence.l1_misses", misses, "count")
	put("coherence.nacks", nacks, "count")
	put("coherence.nacks_per_miss", ratio(nacks, misses), "ratio")
	put("coherence.invalidations", invs, "count")
	put("coherence.s_to_w", stow, "count")
	put("coherence.updates_received", upds, "count")
	put("coherence.miss_lat_p50_cyc", percentile(missLat, 0.50), "cycles")
	put("coherence.miss_lat_p99_cyc", percentile(missLat, 0.99), "cycles")
	put("mesh.packets", packets, "count")
	put("mesh.hops_per_leg", percentile(hops, 0.50), "hops")
	put("wireless.attempts", attempts, "count")
	put("wireless.collisions", colls, "count")
	put("wireless.collision_prob", ratio(colls, attempts), "ratio")
	put("mcheck.states", states, "count")
	put("mcheck.edges", edges, "count")
	put("mcheck.states_per_s", ratio(states, runS), "states/s")
	put("mcheck.new_s", spanMedian(spans, "mcheck.New"), "s")
	put("mcheck.explore_s", spanMedian(spans, "mcheck.Checker.Explore"), "s")
	put("protomodel.spec_s", spanMedian(spans, "protomodel.EmbeddedSpec+ModelFromSpec"), "s")

	// Simulated fidelity against the paper (paper-64 only: the generated
	// profiles have no published reference).
	var fig8Err float64
	if mean, ok := fig8(passes[0]); ok && passes[0].samples[0].op.prof.PaperMPKI > 0 {
		fig8Err = math.Abs(mean - paperFig8Mean)
		mpkiErr /= float64(baselines)
	} else {
		mpkiErr = 0
	}
	put("exp.fig8_ratio_err", fig8Err, "ratio")
	put("exp.mpki_rel_err", mpkiErr, "ratio")

	put("runtime.allocs_per_op", allocs/ops, "count")
	put("runtime.alloc_mb_per_op", allocBytes/ops/(1<<20), "MB")
	put("runtime.gc_count", gcs, "count")

	for _, layer := range shareLayers {
		put(layer+".host_share", shares[layer], "ratio")
	}
	put("runtime.gc_share", shares["gc"], "ratio")

	var events float64
	groups := map[string]float64{}
	if counts != nil {
		for k, n := range counts.n {
			if n > 0 {
				events += float64(n)
				groups[obs.Kind(k).Group()] += float64(n)
			}
		}
	}
	put("obs.events", events, "count")
	for _, g := range obs.GroupNames() {
		put("obs.events."+g, groups[g], "count")
	}
	var overhead float64
	if traced != nil {
		overhead = ratio(traced.runS(nil), runS)
	}
	put("obs.overhead", overhead, "ratio")
	return m
}

// merge adds h into acc, starting acc as a copy of the first h.
func merge(acc, h *stats.Histogram) *stats.Histogram {
	if h == nil {
		return acc
	}
	if acc == nil {
		acc = new(stats.Histogram)
		data, err := h.MarshalJSON()
		if err == nil {
			err = acc.UnmarshalJSON(data)
		}
		if err != nil {
			return nil
		}
		return acc
	}
	acc.Merge(h)
	return acc
}

func percentile(h *stats.Histogram, p float64) float64 {
	if h == nil {
		return 0
	}
	return h.Percentile(p)
}

// shareLayers are the packages whose share of profiled host time is
// reported as <layer>.host_share.
var shareLayers = []string{"machine", "cpu", "cache", "coherence", "mesh", "wireless", "engine", "workload", "mcheck", "runtime"}

// gcRoots are the runtime functions whose cumulative time is garbage
// collection: the background mark workers, mutator assists and sweeping.
var gcRoots = map[string]bool{"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.bgsweep": true}

// hostShares rolls the CPU profile up by package with `go tool pprof
// -top`: each function's flat samples count toward its package
// (repro/internal/<pkg>, or runtime for the Go runtime), as a share of
// all samples. The pprof text is kept next to the profile.
func hostShares(profile, topPath string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", "-unit=ms", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	if err := os.WriteFile(topPath, out, 0o644); err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 {
			continue
		}
		flat, err1 := parseMS(f[0])
		cum, err2 := parseMS(f[3])
		if err1 != nil || err2 != nil {
			continue // header lines
		}
		fn := f[5]
		total += flat
		shares[layerOf(fn)] += flat
		if gcRoots[fn] {
			shares["gc"] += cum
		}
	}
	if total == 0 {
		return shares, nil
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

func parseMS(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
}

// layerOf maps a profiled function name to its package's layer name.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "runtime/internal/") {
		return "runtime"
	}
	return "other"
}
