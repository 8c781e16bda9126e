package machine

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/workload"
)

// BenchmarkMachineCycle measures the per-cycle cost of the machine
// loop in isolation — one Step(1) per iteration on a live 16-core
// WiDir system. With -benchmem this is the per-cycle allocation
// count that TestSteadyStateCycleAllocBudget bounds.
func BenchmarkMachineCycle(b *testing.B) {
	prof, _ := workload.ByName("barnes")
	prof = prof.Scale(0.1)
	build := func() *System {
		sys, err := NewSystem(DefaultConfig(16, coherence.WiDir), workload.Program(prof, 16, 11))
		if err != nil {
			b.Fatal(err)
		}
		return sys
	}
	sys := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sys.running == 0 {
			// The workload drained; rebuild off the clock so the metric
			// stays a pure cycle-loop cost.
			b.StopTimer()
			sys = build()
			b.StartTimer()
		}
		sys.Step(1)
		// Step doesn't maintain the running count (Run does); recompute
		// so the drain check above stays accurate.
		sys.running = 0
		for _, c := range sys.cores {
			if !c.Done() {
				sys.running++
			}
		}
	}
}

// BenchmarkSimFastForward measures the quiescence fast-forward on the
// schedule it targets: a compute-dominant mix (512 compute per memory
// op) where cores drain long compute runs analytically and the
// machine jumps the resulting quiescent stretches. One full 16-core
// WiDir run per iteration, construction off the clock; divide ns/op
// by sim-cycles for the effective per-simulated-cycle cost.
// TestSimFastForwardAllocBudget bounds its allocs/op.
func BenchmarkSimFastForward(b *testing.B) {
	prof, _ := workload.ByName("barnes")
	prof = prof.Scale(0.05)
	prof.ComputePerMem = 512
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := DefaultConfig(16, coherence.WiDir)
		sys, err := NewSystem(cfg, workload.Program(prof, 16, 11))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		r, err := sys.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Cycles), "sim-cycles")
	}
}
