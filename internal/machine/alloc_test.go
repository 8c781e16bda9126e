package machine

import (
	"flag"
	"os"
	"os/exec"
	"runtime"
	"testing"

	"repro/internal/coherence"
	"repro/internal/workload"
)

// TestSteadyStateCycleAllocBudget pins the per-cycle allocation budget
// of the warm cycle loop at zero on two machines, both 16 cores under
// WiDir with seed 11: BenchmarkMachineCycle's (barnes x0.1), and
// hotLocks, which is heavy on NACK retries, lock RMWs, wireless writes,
// jams and aborts — paths barnes x0.1 barely exercises. The hot path
// pools every steady-state object: event-queue nodes, mesh packets,
// wired messages (single owner, freed after delivery), transaction
// records, wireless requests and writes, the controllers' runners,
// MemRequests, completions, and pending and directory entries.
// testing.AllocsPerRun truncates to whole objects per run, so the
// budget of 0 admits less than one object per cycle on average; what
// a window still allocates is first-touch growth only: new directory
// entries, tables and pools reaching their peak size. Wireless
// broadcasts travel by value and the directory's broadcast callbacks
// ride its transaction records, so no protocol transition allocates.
// One allocation per cycle or per wired message breaks it.
// Each window must end with cores still running (on a drained machine
// every Step is idle and the budget could never fail), and the
// hotLocks window must see NACKs, jams and wireless writes.
func TestSteadyStateCycleAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime bookkeeping allocates nondeterministically")
	}
	barnes, ok := workload.ByName("barnes")
	if !ok {
		t.Fatal("unknown app barnes")
	}
	for _, tc := range []struct {
		name  string
		prof  workload.Profile
		heavy bool
	}{
		{"barnes", barnes.Scale(0.1), false},
		{"hotLocks", hotLocks, true},
	} {
		sys, err := NewSystem(DefaultConfig(16, coherence.WiDir), workload.Program(tc.prof, 16, 11))
		if err != nil {
			t.Fatal(err)
		}
		sys.Step(500) // warm every pool past its start-up growth
		nacks, jams, writes := sys.retryCounts()
		const steps = 2_000
		avg := testing.AllocsPerRun(steps, func() { sys.Step(1) })
		running := 0
		for _, c := range sys.cores {
			if !c.Done() {
				running++
			}
		}
		if running == 0 {
			t.Fatalf("%s: every core finished by cycle %d: the window measured an idle machine", tc.name, sys.Cycle())
		}
		if n, j, w := sys.retryCounts(); tc.heavy && (n == nacks || j == jams || w == writes) {
			t.Fatalf("%s: the window saw %d NACKs, %d jams and %d wireless writes; it must see all three",
				tc.name, n-nacks, j-jams, w-writes)
		}
		if avg > 0 {
			t.Errorf("%s: steady-state cycle loop allocates %.2f objects/cycle, budget 0", tc.name, avg)
		}
	}
}

// hotLocks is the retry-heavy budget machine: hot lines every core
// writes, group-shared lines, and a lock critical section every 40
// steps, which keep directories busy (NACKs), lines jammed and wireless
// RMWs aborting.
var hotLocks = workload.Profile{
	Name: "hotLocks", Steps: 1500, ComputePerMem: 2,
	HotLines: 8, HotAccessFrac: 0.3, HotWriteFrac: 0.2,
	MidLines: 32, MidSharers: 8, MidAccessFrac: 0.2, MidWriteFrac: 0.1,
	ReuseLines: 16, PrivateWriteFrac: 0.3, StreamFrac: 0.01,
	LockEvery: 40, Locks: 4, CritAccesses: 2, BarrierEvery: 500,
}

// retryCounts sums the NACKs, wireless jams and wireless writes so far.
func (s *System) retryCounts() (nacks, jams, writes uint64) {
	for _, l := range s.l1s {
		nacks += l.Stats.NACKs.Value()
		writes += l.Stats.WirelessWrites.Value()
	}
	return nacks, s.wchan.Jams.Value(), writes
}

// TestSimFastForwardAllocBudget puts a ceiling on the allocations of
// one whole run on BenchmarkSimFastForward's schedule (barnes x0.05,
// 512 compute per memory op, 16 cores, seed 11), construction off the
// count as in the benchmark, under both protocols. It measures in a
// fresh process (the test binary re-run with -test.run and a positional
// argument), because a run after other tests in the same process reads
// up to about ten objects more. The count is still not exactly
// deterministic: the sim's maps draw a random hash seed per instance,
// so their growth allocations jitter by a few objects between
// identical runs. Each ceiling is the maximum seen plus the spread seen
// over fresh processes on linux/amd64 with go1.24: WiDir 1,051–1,054
// over 500 (1,122–1,125 while each S->W, W->S and W eviction boxed its
// broadcast), Baseline 887–889 over 680. Another Go release may
// allocate differently; re-measure there. One
// extra allocation per cycle or per coherence message overshoots the
// ceiling by thousands.
func TestSimFastForwardAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime bookkeeping allocates nondeterministically")
	}
	if flag.Arg(0) != fastForwardChild {
		out, err := exec.Command(os.Args[0], "-test.run=^TestSimFastForwardAllocBudget$", "-test.v", fastForwardChild).CombinedOutput()
		t.Logf("fresh process:\n%s", out)
		if err != nil {
			t.Fatalf("fresh process: %v", err)
		}
		return
	}
	for _, tc := range []struct {
		p       coherence.Protocol
		ceiling uint64
	}{
		{coherence.WiDir, 1_054 + 3},
		{coherence.Baseline, 889 + 2},
	} {
		n := fastForwardRunAllocs(t, tc.p)
		t.Logf("%v: one run allocates %d objects", tc.p, n)
		if n > tc.ceiling {
			t.Errorf("%v: one run allocates %d objects, ceiling %d", tc.p, n, tc.ceiling)
		}
	}
}

// fastForwardChild, as the test binary's first positional argument,
// makes TestSimFastForwardAllocBudget measure in its own process rather
// than start a fresh one.
const fastForwardChild = "fast-forward-alloc-child"

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

// TestNewSystemAllocBytes puts a ceiling on the bytes that building the
// paper's 64-core WiDir machine allocates: workload.Program for barnes
// plus NewSystem(DefaultConfig(64, WiDir)). L1 lines and directory
// entries are allocated as a run touches them, so set-up holds the L1
// way tables, the cores' ROBs and load-queue requests, and the
// controllers' empty tables. The ceiling is the maximum seen plus the
// spread seen over 880 runs in 44 processes of -count=20 on
// linux/amd64 with go1.24: 1,946,704–1,952,232 bytes. A request per
// ROB slot and a {tag, *Line} way table, as before, allocated
// 2,997,328–2,999,240; building every L1 line eagerly, 8.62 MB.
func TestNewSystemAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime bookkeeping allocates nondeterministically")
	}
	const ceiling = 1_952_232 + 5_528
	prof, ok := workload.ByName("barnes")
	if !ok {
		t.Fatal("unknown app barnes")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys, err := NewSystem(DefaultConfig(64, coherence.WiDir), workload.Program(prof, 64, 1))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(sys)
	n := after.TotalAlloc - before.TotalAlloc
	t.Logf("set-up allocates %d bytes", n)
	if n > ceiling {
		t.Errorf("building the 64-core machine allocates %d bytes, ceiling %d", n, ceiling)
	}
}
