package main

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/workload"
)

// cores is the machine size of every simulator workload: the paper's
// headline 64-core configuration (Figs. 6-9, Table IV).
const cores = 64

// seedPool is the number of distinct input sets a workload has. The
// command-line seed selects one of them (poolSeed), and fingerprints.json
// records the simulated outcome of every op of every set, so each run
// checks its outputs against recorded values whatever seed it is given.
const seedPool = 16

// poolSeed maps a command-line seed onto the pool: 1..16 map to
// themselves, every other value wraps.
func poolSeed(n int64) uint64 {
	m := (n - 1) % seedPool
	if m < 0 {
		m += seedPool
	}
	return uint64(m) + 1
}

// opKind selects what one op runs.
type opKind uint8

const (
	opSim    opKind = iota // workload.Program + machine.NewSystem + System.Run
	opMcheck               // spec load + mcheck.New + Checker.Explore
)

// op is one unit of timed work: one simulation or one exploration.
type op struct {
	kind  opKind
	proto coherence.Protocol
	prof  workload.Profile
	seed  uint64 // workload seed (sims)
}

// name keys the op in fingerprints.json.
func (o op) name() string {
	if o.kind == opMcheck {
		return "explore"
	}
	return fmt.Sprintf("%s/%s/%d", o.prof.Name, o.proto, o.seed)
}

// workloads maps each benchmark workload to the op list of one pass
// for a pool seed. A run repeats passes until its time is used up.
var workloads = map[string]func(s uint64) []op{
	// The run users make to regenerate the evaluation: every Table IV
	// profile as shipped, at full scale, under both protocols.
	"paper-64": func(s uint64) []op {
		var ops []op
		for _, p := range workload.Apps() {
			ops = append(ops, simPair(p, s)...)
		}
		return ops
	},
	// Write-shared lines with many sharers: the traffic that separates
	// update from invalidate protocols, so the mesh, the directory
	// controllers, the event wheel and the wireless MAC all do heavy work.
	// Its lock and barrier dynamics are chaotic: host time per seed pair
	// varies by about 14% (coefficient of variation) across seeds, too
	// much for a bounded metric, so every run simulates the inputs of
	// input set 1.
	"hotshare-64": func(uint64) []op { return generated(hotshare, 1) },
	// Private compute: the bypass for network and protocol work, where
	// core-model and fast-forward changes show on their own.
	"compute-64": func(s uint64) []op { return generated(compute, s) },
	// The default model-checker configuration shrunk to 2 L1s: no
	// simulator layer runs, allocation and hashing dominate.
	"mcheck-2l1": func(uint64) []op { return []op{{kind: opMcheck}} },
}

// hotshare puts half of all accesses on hot (every core) or group
// (16-core) shared lines with writes, with a lock every 200 steps and a
// barrier every 1000.
var hotshare = workload.Profile{
	Name: "hotshare", Steps: 2500, ComputePerMem: 2,
	HotLines: 16, HotAccessFrac: 0.25, HotWriteFrac: 0.10,
	MidLines: 64, MidSharers: 16, MidAccessFrac: 0.25, MidWriteFrac: 0.10,
	StreamFrac: 0.01, ReuseLines: 32, PrivateWriteFrac: 0.3,
	LockEvery: 200, Locks: 8, CritAccesses: 2, BarrierEvery: 1000,
}

// compute has no shared data and no synchronization; its reuse set of
// 32 lines fits in the L1 many times over.
var compute = workload.Profile{
	Name: "compute", Steps: 8000, ComputePerMem: 40,
	ReuseLines: 32, PrivateWriteFrac: 0.3,
}

// generatedSeeds is how many workload seeds one pass of a generated
// profile runs, each under both protocols.
const generatedSeeds = 2

func generated(p workload.Profile, s uint64) []op {
	var ops []op
	for j := uint64(0); j < generatedSeeds; j++ {
		ops = append(ops, simPair(p, 100*s+j)...)
	}
	return ops
}

func simPair(p workload.Profile, seed uint64) []op {
	return []op{
		{kind: opSim, proto: coherence.Baseline, prof: p, seed: seed},
		{kind: opSim, proto: coherence.WiDir, prof: p, seed: seed},
	}
}
