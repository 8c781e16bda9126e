// Package widir is a from-scratch reproduction of "WiDir: A
// Wireless-Enabled Directory Cache Coherence Protocol" (HPCA 2021): a
// cycle-level manycore simulator whose memory hierarchy runs either a
// conventional Dir_3B MESI directory protocol over a wired 2D-mesh NoC
// (Baseline), or WiDir, which augments it with a Wireless Shared (W)
// state carried by an on-chip wireless network with a BRS MAC, a tone
// acknowledgment channel, and selective data-channel jamming.
//
// The package exposes the machine configuration, the synthesized
// SPLASH-3/PARSEC application profiles of the paper's Table IV, and
// helpers to run single simulations or Baseline-vs-WiDir comparisons:
//
//	cfg := widir.DefaultConfig(64, widir.WiDir)
//	app, _ := widir.App("radiosity")
//	res, err := widir.Run(cfg, app, 1)
//
// The experiment harness that regenerates every table and figure of
// the paper's evaluation lives in cmd/widir-experiments.
package widir

import (
	"repro/internal/addrspace"
	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Addr is a byte-granular physical address in the simulated machine.
type Addr = addrspace.Addr

// LineSize is the simulated cache line size in bytes.
const LineSize = addrspace.LineSize

// Protocol selects the coherence protocol a machine runs.
type Protocol = coherence.Protocol

// The two protocols under evaluation.
const (
	Baseline = coherence.Baseline
	WiDir    = coherence.WiDir
)

// Config describes one simulated manycore (Table III defaults via
// DefaultConfig).
type Config = machine.Config

// Result summarizes one run: cycles, MPKI, memory-stall attribution,
// wireless statistics, the Fig. 5 sharer histogram, the Table V hop
// histogram, and the Fig. 9 energy breakdown.
type Result = machine.Result

// AppProfile describes one synthesized application (Table IV).
type AppProfile = workload.Profile

// Instr and InstrSource let callers drive a machine with custom
// instruction streams instead of the built-in application profiles.
type (
	Instr       = cpu.Instr
	InstrSource = cpu.InstrSource
)

// Instruction kinds for custom sources.
const (
	KCompute = cpu.KCompute
	KLoad    = cpu.KLoad
	KStore   = cpu.KStore
	KRMW     = cpu.KRMW
)

// RMW operation kinds for custom sources.
const (
	RMWTestAndSet  = coherence.RMWTestAndSet
	RMWExchange    = coherence.RMWExchange
	RMWFetchAdd    = coherence.RMWFetchAdd
	RMWCompareSwap = coherence.RMWCompareSwap
)

// TraceEvent is one cycle-stamped observability event (see
// internal/obs for the vocabulary and export helpers).
type TraceEvent = obs.Event

// TraceSink receives every TraceEvent a traced machine emits. Attach
// one via Config.Trace before building the system; a nil sink (the
// default) keeps the simulator on its allocation-free fast path. To
// follow one cache line, wrap a sink in an obs.Filter with that Line
// (Filter.Sink). `widirsim -events/-perfetto` attaches a ring sink this
// way, and `widirsim -trace-line` a line filter streaming JSONL.
type TraceSink = obs.Sink

// NewTraceRing returns a bounded in-memory TraceSink holding the most
// recent capacity events (see obs.RingSink for draining and export).
func NewTraceRing(capacity int) *obs.RingSink { return obs.NewRingSink(capacity) }

// DefaultConfig returns the paper's Table III machine with the given
// core count and protocol: 4-issue out-of-order cores (ROB 180, LSQ
// 64, write buffer 64), 64 KB 2-way L1s, 512 KB LLC slices with Dir_3B
// directories, a 2D mesh at 1 cycle/hop with 128-bit links, four
// memory controllers at 80-cycle round trip and, for WiDir, the 20
// Gb/s data channel (4+1 cycles per packet) with MaxWiredSharers=3.
func DefaultConfig(nodes int, p Protocol) Config {
	return machine.DefaultConfig(nodes, p)
}

// Apps returns the 20 evaluated application profiles in Table IV order.
func Apps() []AppProfile { return workload.Apps() }

// App returns the named application profile.
func App(name string) (AppProfile, bool) { return workload.ByName(name) }

// AppNames returns the application names in Table IV order.
func AppNames() []string { return workload.Names() }

// Run builds a machine for cfg, synthesizes the application's
// per-core instruction streams with the given seed, executes the
// machine to completion, and returns the measurements.
func Run(cfg Config, app AppProfile, seed uint64) (*Result, error) {
	sys, err := machine.NewSystem(cfg, workload.Program(app, cfg.Nodes, seed))
	if err != nil {
		return nil, err
	}
	return sys.Run()
}

// RunCustom executes a machine fed by caller-provided instruction
// sources (len(sources) must equal cfg.Nodes).
func RunCustom(cfg Config, sources []InstrSource) (*Result, error) {
	sys, err := machine.NewSystem(cfg, sources)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}

// NewSystem exposes the assembled machine for callers that want to
// drive or inspect the simulation directly (see internal/machine for
// the System API used by the tests).
func NewSystem(cfg Config, sources []InstrSource) (*machine.System, error) {
	return machine.NewSystem(cfg, sources)
}

// Comparison holds a Baseline/WiDir pair for one application.
type Comparison struct {
	App   string
	Base  *Result
	WiDir *Result
}

// TimeRatio returns WiDir execution time normalized to Baseline
// (Fig. 8's metric; < 1 means WiDir is faster).
func (c *Comparison) TimeRatio() float64 {
	if c.Base.Cycles == 0 {
		return 0
	}
	return float64(c.WiDir.Cycles) / float64(c.Base.Cycles)
}

// Speedup returns Baseline time / WiDir time.
func (c *Comparison) Speedup() float64 {
	if c.WiDir.Cycles == 0 {
		return 0
	}
	return float64(c.Base.Cycles) / float64(c.WiDir.Cycles)
}

// Compare runs the application under both protocols with otherwise
// identical configuration and seed.
func Compare(cfg Config, app AppProfile, seed uint64) (*Comparison, error) {
	bcfg := cfg
	bcfg.Protocol = Baseline
	wcfg := cfg
	wcfg.Protocol = WiDir
	base, err := Run(bcfg, app, seed)
	if err != nil {
		return nil, err
	}
	wd, err := Run(wcfg, app, seed)
	if err != nil {
		return nil, err
	}
	return &Comparison{App: app.Name, Base: base, WiDir: wd}, nil
}
