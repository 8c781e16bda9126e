// Package workload synthesizes the memory reference streams the
// evaluation runs. Each SPLASH-3/PARSEC application of Table IV is
// represented by a Profile describing its measured sharing behaviour —
// target miss rate, the degree and write intensity of data sharing, and
// its lock/barrier density — and a generator turns a profile into one
// reactive instruction stream per core. Synchronization is real: locks
// are spin test-and-set RMWs and barriers are sense-reversing counters,
// so the highly-shared lines the paper's Figure 5 attributes to locks
// and barriers emerge from execution rather than being injected.
package workload

import (
	"repro/internal/addrspace"
	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/xrand"
)

// Address map regions. Each region is generously sized so lines never
// collide across regions.
const (
	regionSync    addrspace.Addr = 0x0000_0000 // locks, barriers
	regionHot     addrspace.Addr = 0x0100_0000 // highly shared data
	regionMid     addrspace.Addr = 0x0200_0000 // group-shared data
	regionMig     addrspace.Addr = 0x0300_0000 // migratory data
	regionPipe    addrspace.Addr = 0x0400_0000 // pipeline stage queues
	regionPrivate addrspace.Addr = 0x1000_0000 // per-core, 16 MB stride
	privateStride addrspace.Addr = 0x0100_0000
)

// Profile describes one application's synthesized behaviour.
type Profile struct {
	Name string

	// PaperMPKI is the paper's measured Baseline L1 MPKI (Table IV),
	// recorded for reporting and used to calibrate the private stream.
	PaperMPKI float64

	// Steps is the number of generator steps per core (each step is one
	// memory access plus ComputePerMem compute instructions), before
	// synchronization overhead.
	Steps int

	// ComputePerMem sets the compute:memory instruction ratio.
	ComputePerMem int

	// Hot lines are globally shared lines (flags, reduction cells) that
	// every core reads and writes; HotAccessFrac of accesses touch them
	// and HotWriteFrac of those are writes.
	HotLines      int
	HotAccessFrac float64
	HotWriteFrac  float64

	// Mid lines are shared by groups of MidSharers neighbouring cores.
	MidLines      int
	MidSharers    int
	MidAccessFrac float64
	MidWriteFrac  float64

	// Private accesses: StreamFrac of them walk fresh lines (compulsory
	// misses); the rest reuse a small per-core set of ReuseLines (hits).
	PrivateWriteFrac float64
	StreamFrac       float64
	ReuseLines       int

	// Migratory lines are owned by one core at a time and handed
	// around: each visit reads then writes the line. The classic
	// pattern update-based protocols lose on — WiDir's UpdateCount
	// decay must return such lines to the wired protocol.
	MigLines      int
	MigAccessFrac float64

	// Pipeline queues model the producer-consumer stage structure of
	// the PARSEC pipeline codes: core i writes queue lines that core
	// i+1 reads — two sharers per line with a single alternating
	// writer, exactly the pattern that stays on the wired protocol.
	PipeDepth      int     // queue cells per stage boundary (0 = none)
	PipeAccessFrac float64 // fraction of accesses touching the queues

	// PhaseEvery, when non-zero, structures the run as alternating
	// compute and communication phases of this many steps (real
	// time-stepped codes interleave private number-crunching with
	// neighbour/global exchange). During compute phases shared-access
	// fractions are quartered; during communication phases they are
	// doubled. The long-run average stays close to the configured mix.
	PhaseEvery int

	// Synchronization density: a lock critical section every LockEvery
	// steps (0 = never) over Locks distinct locks with CritAccesses
	// shared-data accesses inside; a global barrier every BarrierEvery
	// steps (0 = never).
	LockEvery    int
	Locks        int
	CritAccesses int
	BarrierEvery int
}

// Scale returns a copy with the per-core work scaled by f, preserving
// strong-scaling semantics: the step count, the per-core reuse working
// set, and the lock/barrier step intervals all scale together, so the
// *total* number of synchronization episodes and the per-core data
// footprint track the work division (quick tests and Fig. 10 core
// sweeps both rely on this).
func (p Profile) Scale(f float64) Profile {
	q := p
	q.Steps = scaleInt(p.Steps, f, 1)
	q.ReuseLines = scaleInt(p.ReuseLines, f, 8)
	if p.BarrierEvery > 0 {
		q.BarrierEvery = scaleInt(p.BarrierEvery, f, 50)
	}
	if p.LockEvery > 0 {
		q.LockEvery = scaleInt(p.LockEvery, f, 40)
	}
	if p.PhaseEvery > 0 {
		q.PhaseEvery = scaleInt(p.PhaseEvery, f, 50)
	}
	return q
}

func scaleInt(v int, f float64, floor int) int {
	if v == 0 {
		return 0
	}
	s := int(float64(v) * f)
	if s < floor {
		s = floor
	}
	return s
}

type tstate uint8

const (
	stRun            tstate = iota
	stAccess                // compute emitted; the data access follows
	stLockTAS               // awaiting test-and-set result
	stLockSpin              // awaiting spin-load result
	stCrit                  // inside a critical section
	stBarrierReset          // last arriver: awaiting the counter reset RMW
	stBarrierRelease        // last arriver: emit the sense release store
	stBarrierAdd            // awaiting the fetch-add result
	stBarrierSpin           // awaiting the sense spin-load result
	stLockPause             // adaptive-spin pause before the next lock probe
	stBarrierPause          // adaptive-spin pause before the next sense probe
)

// thread is the reactive instruction stream of one core; it implements
// cpu.InstrSource as a resumable state machine. Next is re-entered with
// the result of the previous WantResult instruction, which drives the
// spin loops.
type thread struct {
	p     Profile
	core  int
	cores int
	rng   *xrand.Source

	step      int
	state     tstate
	access    cpu.Instr // staged data access (stAccess)
	lockAddr  addrspace.Addr
	lockFails int // consecutive failed probes, drives spin backoff
	critLeft  int
	barrier   *barrierState
	stream    addrspace.Addr
	migTurn   bool
	migLine   addrspace.Addr
	migLeft   int
	sense     uint64
	done      bool

	// Barriers counts completed barrier episodes (tests).
	Barriers int
}

// barrierState holds the shared addresses of the global sense-reversing
// barrier.
type barrierState struct {
	counter addrspace.Addr
	sense   addrspace.Addr
}

// Program builds the per-core instruction sources for a profile on an
// n-core machine. The same seed yields the same workload.
func Program(p Profile, n int, seed uint64) []cpu.InstrSource {
	master := xrand.New(seed ^ 0xabcdef12345)
	bar := &barrierState{
		counter: regionSync,
		sense:   regionSync + addrspace.LineSize, // separate lines
	}
	srcs := make([]cpu.InstrSource, n)
	for i := 0; i < n; i++ {
		srcs[i] = &thread{
			p:       p,
			core:    i,
			cores:   n,
			rng:     master.Split(),
			barrier: bar,
			stream:  regionPrivate + addrspace.Addr(i)*privateStride,
		}
	}
	return srcs
}

// lockLine returns the address of lock i, one line apart to avoid
// false sharing (the suites are "properly synchronized").
func lockLine(i int) addrspace.Addr {
	return regionSync + addrspace.Addr(2+i)*addrspace.LineSize
}

// Next implements cpu.InstrSource.
func (t *thread) Next(prev uint64, prevValid bool) (cpu.Instr, bool) {
	if t.done {
		return cpu.Instr{}, false
	}
	switch t.state {
	case stRun:
		return t.nextRun()

	case stAccess:
		t.state = stRun
		return t.access, true

	case stLockTAS:
		if prev == 0 {
			// Acquired.
			t.lockFails = 0
			t.state = stCrit
			t.critLeft = t.p.CritAccesses
			return t.Next(0, false)
		}
		t.state = stLockSpin
		return cpu.Instr{Kind: cpu.KLoad, Addr: t.lockAddr, WantResult: true}, true

	case stLockSpin:
		if prev == 0 && (t.lockFails == 0 || t.rng.Bool(0.5)) {
			// Observed free: attempt the acquire with a CAS, the way
			// the suites' PARMACS/pthread locks do. A failed CAS
			// performs no store, so contention does not amplify write
			// traffic. Waiters that already failed once only attempt
			// with probability 1/2, staggering the post-release rush.
			t.state = stLockTAS
			return cpu.Instr{Kind: cpu.KRMW, RMW: coherence.RMWCompareSwap, Expected: 0, Value: 1, Addr: t.lockAddr, WantResult: true}, true
		}
		// Short randomized pause between probes (test-and-test-and-set
		// spinning). Probes are local reads on a W-state lock line, so
		// frequent spinning is cheap and keeps the waiters in the
		// wireless sharer group — the behaviour behind the paper's
		// "50+ sharers updated" bin for lock and barrier lines.
		if t.lockFails < 8 {
			t.lockFails++
		}
		t.state = stLockPause
		return cpu.Instr{Kind: cpu.KPause, N: 8 + t.rng.Intn(25)}, true

	case stLockPause:
		t.state = stLockSpin
		return cpu.Instr{Kind: cpu.KLoad, Addr: t.lockAddr, WantResult: true}, true

	case stCrit:
		if t.critLeft > 0 {
			t.critLeft--
			return t.critAccess(), true
		}
		t.state = stRun
		return cpu.Instr{Kind: cpu.KStore, Addr: t.lockAddr, Value: 0}, true

	case stBarrierAdd:
		if prev == uint64(t.cores-1) {
			// Last arriver: reset the counter with a completing RMW so
			// the reset is globally visible before the release store.
			t.state = stBarrierReset
			return cpu.Instr{Kind: cpu.KRMW, RMW: coherence.RMWExchange, Addr: t.barrier.counter, Value: 0, WantResult: true}, true
		}
		t.state = stBarrierSpin
		return cpu.Instr{Kind: cpu.KLoad, Addr: t.barrier.sense, WantResult: true}, true

	case stBarrierReset:
		t.state = stBarrierRelease
		return cpu.Instr{Kind: cpu.KStore, Addr: t.barrier.sense, Value: t.sense}, true

	case stBarrierRelease:
		t.Barriers++
		t.state = stRun
		return t.nextRun()

	case stBarrierSpin:
		if prev == t.sense {
			t.Barriers++
			t.state = stRun
			return t.nextRun()
		}
		t.state = stBarrierPause
		return cpu.Instr{Kind: cpu.KPause, N: 4 + t.rng.Intn(12)}, true

	case stBarrierPause:
		t.state = stBarrierSpin
		return cpu.Instr{Kind: cpu.KLoad, Addr: t.barrier.sense, WantResult: true}, true
	}
	panic("workload: unreachable thread state")
}

// nextRun advances the main phase: a compute block plus one memory
// access per step, with periodic lock and barrier episodes.
func (t *thread) nextRun() (cpu.Instr, bool) {
	if t.step >= t.p.Steps {
		t.done = true
		return cpu.Instr{}, false
	}
	t.step++

	if t.p.BarrierEvery > 0 && t.step%t.p.BarrierEvery == 0 {
		t.sense ^= 1
		t.state = stBarrierAdd
		return cpu.Instr{Kind: cpu.KRMW, RMW: coherence.RMWFetchAdd, Addr: t.barrier.counter, Value: 1, WantResult: true}, true
	}
	if t.p.LockEvery > 0 && t.step%t.p.LockEvery == 0 && t.p.Locks > 0 {
		// Test-and-test-and-set: spin on an ordinary load first, and
		// only attempt the atomic when the lock was observed free —
		// the way the PARMACS/pthread locks of the suites behave.
		t.lockAddr = lockLine(t.rng.Intn(t.p.Locks))
		t.lockFails = 0
		t.state = stLockSpin
		return cpu.Instr{Kind: cpu.KLoad, Addr: t.lockAddr, WantResult: true}, true
	}

	t.access = t.memAccess()
	if t.p.ComputePerMem > 0 {
		t.state = stAccess
		// Real applications have work imbalance; jittering the compute
		// block by +/-25% staggers synchronization arrivals, which is
		// what keeps the paper's wireless collision rates low.
		n := t.p.ComputePerMem
		jitter := n / 2
		if jitter > 0 {
			n += t.rng.Intn(jitter+1) - jitter/2
		}
		if n < 1 {
			n = 1
		}
		return cpu.Instr{Kind: cpu.KCompute, N: n}, true
	}
	return t.access, true
}

// sharedScale returns the multiplier the current phase applies to the
// shared-access fractions (1 when phases are disabled).
func (t *thread) sharedScale() float64 {
	if t.p.PhaseEvery <= 0 {
		return 1
	}
	if (t.step/t.p.PhaseEvery)%2 == 0 {
		return 0.25 // compute phase
	}
	return 2 // communication phase
}

// memAccess synthesizes one data access per the profile's mix.
func (t *thread) memAccess() cpu.Instr {
	r := t.rng.Float64() / t.sharedScale()
	pipe := t.p.PipeAccessFrac
	if t.p.PipeDepth == 0 {
		pipe = 0
	}
	mig := t.p.MigAccessFrac
	if t.p.MigLines == 0 {
		mig = 0
	}
	switch {
	case r < pipe:
		// Pipeline: produce into our downstream stage queue or consume
		// from the upstream one, alternating. Queue cells for the
		// boundary after core i live at index i.
		t.migTurn = !t.migTurn
		cell := addrspace.Addr(t.rng.Intn(t.p.PipeDepth))
		if t.migTurn {
			line := regionPipe + (addrspace.Addr(t.core)*addrspace.Addr(t.p.PipeDepth)+cell)*addrspace.LineSize
			return t.readOrWrite(line, 1)
		}
		up := (t.core + t.cores - 1) % t.cores
		line := regionPipe + (addrspace.Addr(up)*addrspace.Addr(t.p.PipeDepth)+cell)*addrspace.LineSize
		return t.readOrWrite(line, 0)
	case r < pipe+mig:
		// Migratory visit: a core works on one line for a burst of
		// alternating reads and writes before another core takes it
		// over — ownership hops between cores, with rarely more than
		// one or two simultaneous interested parties per line. This is
		// the pattern that must *stay wired* under WiDir.
		if t.migLeft == 0 {
			t.migLine = regionMig + addrspace.Addr(t.rng.Intn(t.p.MigLines))*addrspace.LineSize
			t.migLeft = 6
		}
		t.migLeft--
		t.migTurn = !t.migTurn
		if t.migTurn {
			return t.readOrWrite(t.migLine, 0)
		}
		return t.readOrWrite(t.migLine, 1)
	case r < pipe+mig+t.p.HotAccessFrac && t.p.HotLines > 0:
		line := regionHot + addrspace.Addr(t.rng.Intn(t.p.HotLines))*addrspace.LineSize
		return t.readOrWrite(line, t.p.HotWriteFrac)
	case r < pipe+mig+t.p.HotAccessFrac+t.p.MidAccessFrac && t.p.MidLines > 0 && t.p.MidSharers > 0:
		group := t.core / t.p.MidSharers
		idx := group*t.p.MidLines + t.rng.Intn(t.p.MidLines)
		line := regionMid + addrspace.Addr(idx)*addrspace.LineSize
		return t.readOrWrite(line, t.p.MidWriteFrac)
	default:
		var line addrspace.Addr
		if t.p.ReuseLines == 0 || t.rng.Bool(t.p.StreamFrac) {
			line = t.stream
			t.stream += addrspace.LineSize
		} else {
			base := regionPrivate + addrspace.Addr(t.core)*privateStride
			line = base + addrspace.Addr(t.rng.Intn(t.p.ReuseLines))*addrspace.LineSize
		}
		return t.readOrWrite(line, t.p.PrivateWriteFrac)
	}
}

func (t *thread) readOrWrite(line addrspace.Addr, writeFrac float64) cpu.Instr {
	a := line + addrspace.Addr(t.rng.Intn(addrspace.WordsPerLine))*addrspace.WordSize
	if t.rng.Bool(writeFrac) {
		return cpu.Instr{Kind: cpu.KStore, Addr: a, Value: t.rng.Uint64()}
	}
	return cpu.Instr{Kind: cpu.KLoad, Addr: a}
}

// critAccess touches hot shared data inside a critical section.
func (t *thread) critAccess() cpu.Instr {
	line := regionHot
	if t.p.HotLines > 0 {
		line += addrspace.Addr(t.rng.Intn(t.p.HotLines)) * addrspace.LineSize
	}
	return t.readOrWrite(line, 0.5)
}
