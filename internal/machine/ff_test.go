package machine

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/coherence"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/workload"
)

// ffProfile returns the workload the fast-forward equivalence suite
// runs. compute=false is the determinism-suite reference (fmm 0.08,
// a communication-heavy mix where machine-level quiescence is rare);
// compute=true inflates the compute:memory ratio so the analytic
// compute drain and long horizon jumps dominate — the schedule the
// fast-forward path actually accelerates.
func ffProfile(t *testing.T, compute bool) workload.Profile {
	t.Helper()
	prof, ok := workload.ByName("fmm")
	if !ok {
		t.Fatal("unknown app fmm")
	}
	prof = prof.Scale(0.08)
	if compute {
		prof.ComputePerMem = 512
	}
	return prof
}

// ffRun executes one run under the given schedule and returns the
// full byte-stable observable output: the formatted Result (every
// counter and histogram), the off-chip memory image, and the raw
// JSONL trace stream.
func ffRun(t *testing.T, prof workload.Profile, p coherence.Protocol, noFF bool, fcfg fault.Config) (stats, mem, trace string) {
	t.Helper()
	cfg := DefaultConfig(16, p)
	cfg.MaxCycles = 100_000_000
	cfg.LLCEntriesPerSlice = 8
	cfg.Fault = fcfg
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	cfg.Trace = sink
	sys, err := NewSystem(cfg, workload.Program(prof, cfg.Nodes, 5))
	if err != nil {
		t.Fatal(err)
	}
	sys.noFastForward = noFF
	r, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%+v", r), sys.Memory().Dump(), buf.String()
}

// TestFastForwardByteIdentical is the fast-forward half of the
// determinism contract: a run that jumps quiescent stretches
// (System.noFastForward false, the default) must be byte-identical —
// stats, memory image, and full JSONL trace — to the cycle-by-cycle
// schedule that ticks every cycle. Both the communication-heavy
// reference mix and a compute-dominant mix are checked; the latter is
// where the horizon jumps span hundreds of cycles.
func TestFastForwardByteIdentical(t *testing.T) {
	for _, compute := range []bool{false, true} {
		prof := ffProfile(t, compute)
		for _, p := range []coherence.Protocol{coherence.Baseline, coherence.WiDir} {
			s1, m1, tr1 := ffRun(t, prof, p, true, fault.Config{})
			s2, m2, tr2 := ffRun(t, prof, p, false, fault.Config{})
			if s1 != s2 {
				t.Errorf("%v compute=%v: fast-forward changed the stats:\nserial: %.400s\nff:     %.400s", p, compute, s1, s2)
			}
			if m1 != m2 {
				t.Errorf("%v compute=%v: fast-forward changed the memory image", p, compute)
			}
			if tr1 != tr2 {
				t.Errorf("%v compute=%v: fast-forward changed the trace (%d vs %d bytes)", p, compute, len(tr1), len(tr2))
			}
			if tr1 == "" {
				t.Errorf("%v compute=%v: empty trace; equivalence is vacuous", p, compute)
			}
		}
	}
}

// TestFastForwardFaultRunByteIdentical extends the equivalence to
// fault-injected schedules: the fault PRNGs draw per protocol event,
// not per cycle, so a fast-forwarded run must replay the exact same
// fault sequence as the serial one.
func TestFastForwardFaultRunByteIdentical(t *testing.T) {
	prof := ffProfile(t, false)
	s1, m1, tr1 := ffRun(t, prof, coherence.WiDir, true, faultyConfig())
	s2, m2, tr2 := ffRun(t, prof, coherence.WiDir, false, faultyConfig())
	if s1 != s2 {
		t.Errorf("fault run: fast-forward changed the stats:\nserial: %.400s\nff:     %.400s", s1, s2)
	}
	if m1 != m2 {
		t.Error("fault run: fast-forward changed the memory image")
	}
	if tr1 != tr2 {
		t.Error("fault run: fast-forward changed the trace")
	}
}

// TestStepFastForwardMatchesRun pins the windowed path: driving the
// machine with Step(n) (which fast-forwards inside each window but
// must land exactly on its boundary) reaches the same state as Run.
func TestStepFastForwardMatchesRun(t *testing.T) {
	prof := ffProfile(t, true)
	build := func(noFF bool) *System {
		cfg := DefaultConfig(16, coherence.WiDir)
		cfg.MaxCycles = 100_000_000
		cfg.LLCEntriesPerSlice = 8
		sys, err := NewSystem(cfg, workload.Program(prof, cfg.Nodes, 5))
		if err != nil {
			t.Fatal(err)
		}
		sys.noFastForward = noFF
		return sys
	}
	ref := build(true)
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	sys := build(false)
	for step := uint64(1); ; step = step*2 + 1 { // ragged windows
		done := true
		for i := 0; i < 16; i++ {
			if !sys.Core(i).Done() {
				done = false
				break
			}
		}
		if done || sys.Cycle() > ref.Cycle()+10_000 {
			break
		}
		sys.Step(step)
	}
	if got, want := sys.Memory().Dump(), ref.Memory().Dump(); got != want {
		t.Error("Step-driven fast-forward run diverged from Run in memory image")
	}
	for i := 0; i < 16; i++ {
		if g, w := sys.Core(i).Stats.Retired, ref.Core(i).Stats.Retired; g != w {
			t.Errorf("core %d retired %d, want %d", i, g, w)
		}
	}
}
