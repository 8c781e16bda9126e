package machine

import (
	"runtime"
	"testing"

	"repro/internal/coherence"
	"repro/internal/workload"
)

// TestSteadyStateCycleAllocBudget pins the per-cycle allocation
// budget of the warm cycle loop, on BenchmarkMachineCycle's machine
// (barnes x0.1, 16 cores, WiDir, seed 11). The hot path pools every
// steady-state object — event-queue nodes, mesh packets, MemRequests,
// L1 completions and pending entries, directory entries — so the only
// remaining allocations are the coherence Msg constructions in the
// protocol controllers (about 3 per cycle on this machine, and
// deliberately not pooled: a NACKed response can be retained across
// an asynchronous NIC-wait retry, so recycling them would need
// reference counting). The budget is that steady state plus slack for
// step-to-step variance; it catches the hot path regressing to
// per-cycle map/closure/envelope churn. The window must end with cores
// still running: on a drained machine every Step is idle and the
// budget could never fail.
func TestSteadyStateCycleAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime bookkeeping allocates nondeterministically")
	}
	prof, ok := workload.ByName("barnes")
	if !ok {
		t.Fatal("unknown app barnes")
	}
	sys, err := NewSystem(DefaultConfig(16, coherence.WiDir), workload.Program(prof.Scale(0.1), 16, 11))
	if err != nil {
		t.Fatal(err)
	}
	sys.Step(500) // warm every pool past its start-up growth
	const steps = 2_000
	avg := testing.AllocsPerRun(steps, func() { sys.Step(1) })
	running := 0
	for _, c := range sys.cores {
		if !c.Done() {
			running++
		}
	}
	if running == 0 {
		t.Fatalf("every core finished by cycle %d: the window measured an idle machine", sys.Cycle())
	}
	if avg > 3.5 {
		t.Errorf("steady-state cycle loop allocates %.2f objects/cycle, budget 3.5", avg)
	}
}

// TestSimFastForwardAllocBudget puts a ceiling on the allocations of
// one whole run on BenchmarkSimFastForward's schedule (barnes x0.05,
// 512 compute per memory op, 16 cores, seed 11), construction off the
// count as in the benchmark, under both protocols. The count is not
// exactly deterministic: the sim's maps draw a random hash seed per
// instance, so their growth allocations jitter by a few objects
// between identical runs. Each ceiling is the maximum seen plus the
// spread seen over 440 runs in 23 processes (-count=20 or 10) on
// linux/amd64 with go1.24: WiDir 8,099–8,104, Baseline 7,708–7,715.
// Another Go release may allocate differently; re-measure there. One
// extra allocation per cycle or per coherence message overshoots the
// ceiling by thousands.
func TestSimFastForwardAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime bookkeeping allocates nondeterministically")
	}
	for _, tc := range []struct {
		p       coherence.Protocol
		ceiling uint64
	}{
		{coherence.WiDir, 8_104 + 5},
		{coherence.Baseline, 7_715 + 7},
	} {
		if n := fastForwardRunAllocs(t, tc.p); n > tc.ceiling {
			t.Errorf("%v: one run allocates %d objects, ceiling %d", tc.p, n, tc.ceiling)
		}
	}
}

// fastForwardRunAllocs builds BenchmarkSimFastForward's machine and
// returns the heap objects its Run allocates.
func fastForwardRunAllocs(t *testing.T, p coherence.Protocol) uint64 {
	prof, ok := workload.ByName("barnes")
	if !ok {
		t.Fatal("unknown app barnes")
	}
	prof = prof.Scale(0.05)
	prof.ComputePerMem = 512
	sys, err := NewSystem(DefaultConfig(16, p), workload.Program(prof, 16, 11))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
