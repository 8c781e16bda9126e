package machine

import (
	"os"
	"testing"
	"testing/quick"

	"repro/internal/addrspace"
	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/xrand"
)

// randSource emits a random mix of loads, stores and RMWs over a tiny,
// highly contended line set — an adversarial workload for the protocol.
// Every run executes with the value-coherence and structural checkers
// armed, so any serialization or invalidation bug fails loudly.
type randSource struct {
	rng      *xrand.Source
	core     int
	lines    int
	left     int
	spinWait bool
}

func (r *randSource) Next(prev uint64, prevValid bool) (cpu.Instr, bool) {
	if r.left <= 0 {
		return cpu.Instr{}, false
	}
	r.left--
	line := addrspace.Line(4 + r.rng.Intn(r.lines))
	a := line.Base() + addrspace.Addr(r.rng.Intn(addrspace.WordsPerLine))*addrspace.WordSize
	switch r.rng.Intn(10) {
	case 0, 1, 2:
		return cpu.Instr{Kind: cpu.KStore, Addr: a, Value: r.rng.Uint64()}, true
	case 3:
		return cpu.Instr{Kind: cpu.KRMW, RMW: coherence.RMWFetchAdd, Addr: a, Value: 1, WantResult: true}, true
	case 4:
		return cpu.Instr{Kind: cpu.KRMW, RMW: coherence.RMWCompareSwap, Addr: a, Expected: 0, Value: r.rng.Uint64() | 1, WantResult: true}, true
	case 5:
		return cpu.Instr{Kind: cpu.KCompute, N: 1 + r.rng.Intn(8)}, true
	default:
		return cpu.Instr{Kind: cpu.KLoad, Addr: a, WantResult: r.rng.Bool(0.3)}, true
	}
}

func runFuzz(t *testing.T, seed uint64, nodes, lines, ops int, p coherence.Protocol) {
	t.Helper()
	cfg := DefaultConfig(nodes, p)
	cfg.EnableChecker = true
	cfg.MaxCycles = 20_000_000
	// A small LLC keeps directory evictions (W->I, recalls) in play.
	cfg.LLCEntriesPerSlice = 8
	master := xrand.New(seed)
	srcs := make([]cpu.InstrSource, nodes)
	for i := range srcs {
		srcs[i] = &randSource{rng: master.Split(), core: i, lines: lines, left: ops}
	}
	sys, err := NewSystem(cfg, srcs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatalf("seed %d, %d nodes, %d lines, %v: %v", seed, nodes, lines, p, err)
	}
}

// TestFuzzContendedLines is the quick-check driver: random seeds and
// shapes, both protocols, checkers armed.
func TestFuzzContendedLines(t *testing.T) {
	cfgs := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfgs.MaxCount = 3
	}
	if err := quick.Check(func(seed uint64, shape uint8) bool {
		nodes := []int{4, 8, 16}[shape%3]
		lines := 1 + int(shape/3)%4
		runFuzz(t, seed, nodes, lines, 150, coherence.WiDir)
		runFuzz(t, seed, nodes, lines, 150, coherence.Baseline)
		return true
	}, cfgs); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzSingleLine hammers one line from every core — the maximum
// contention case where every WiDir transition (S->W, W->W add-sharer,
// decay, W->S, W->I via tiny LLC) fires constantly.
func TestFuzzSingleLine(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		runFuzz(t, seed, 16, 1, 250, coherence.WiDir)
	}
}

// TestFuzzLongRun is one extended adversarial run per protocol.
func TestFuzzLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long fuzz")
	}
	runFuzz(t, 99, 16, 3, 1500, coherence.WiDir)
	runFuzz(t, 99, 16, 3, 1500, coherence.Baseline)
}

// TestFuzzWithMessageJitter re-runs the contended fuzz under randomized
// wired-message delays: protocol correctness must hold for any delivery
// schedule that preserves the per-pair FIFO property.
func TestFuzzWithMessageJitter(t *testing.T) {
	count := 10
	if testing.Short() {
		count = 3
	}
	for i := 0; i < count; i++ {
		seed := uint64(1000 + i*17)
		cfg := DefaultConfig(8, coherence.WiDir)
		cfg.EnableChecker = true
		cfg.MaxCycles = 20_000_000
		cfg.LLCEntriesPerSlice = 8
		jitter := 5 + i*7
		master := xrand.New(seed)
		srcs := make([]cpu.InstrSource, 8)
		for j := range srcs {
			srcs[j] = &randSource{rng: master.Split(), core: j, lines: 2, left: 200}
		}
		sys, err := NewSystem(cfg, srcs)
		if err != nil {
			t.Fatal(err)
		}
		sys.Mesh().Jitter = jitter
		if _, err := sys.Run(); err != nil {
			t.Fatalf("jitter=%d seed=%d: %v", jitter, seed, err)
		}
	}
}

// TestFuzzSoak is a deep randomized soak (hundreds of checked runs
// across shapes, jitters and protocols). It only runs when WIDIR_SOAK
// is set, since it takes minutes.
func TestFuzzSoak(t *testing.T) {
	if os.Getenv("WIDIR_SOAK") == "" {
		t.Skip("set WIDIR_SOAK=1 to run the deep soak")
	}
	master := xrand.New(0x50AC)
	for i := 0; i < 150; i++ {
		seed := master.Uint64()
		nodes := []int{4, 8, 16}[master.Intn(3)]
		lines := 1 + master.Intn(4)
		jitter := master.Intn(12)
		for _, p := range []coherence.Protocol{coherence.WiDir, coherence.Baseline} {
			cfg := DefaultConfig(nodes, p)
			cfg.EnableChecker = true
			cfg.MaxCycles = 20_000_000
			cfg.LLCEntriesPerSlice = 4 + master.Intn(8)
			rng := xrand.New(seed)
			srcs := make([]cpu.InstrSource, nodes)
			for j := range srcs {
				srcs[j] = &randSource{rng: rng.Split(), core: j, lines: lines, left: 250}
			}
			sys, err := NewSystem(cfg, srcs)
			if err != nil {
				t.Fatal(err)
			}
			sys.Mesh().Jitter = jitter
			if _, err := sys.Run(); err != nil {
				t.Fatalf("soak %d: seed=%d nodes=%d lines=%d jitter=%d %v: %v",
					i, seed, nodes, lines, jitter, p, err)
			}
		}
	}
}
