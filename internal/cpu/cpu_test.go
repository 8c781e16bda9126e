package cpu

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/addrspace"
	"repro/internal/coherence"
	"repro/internal/obs"
)

// scriptSource feeds a fixed instruction list.
type scriptSource struct {
	ins  []Instr
	next int
	// lastPrev records what the core handed back (WantResult results).
	lastPrev      uint64
	lastPrevValid bool
}

func (s *scriptSource) Next(prev uint64, prevValid bool) (Instr, bool) {
	if prevValid {
		s.lastPrev, s.lastPrevValid = prev, prevValid
	}
	if s.next >= len(s.ins) {
		return Instr{}, false
	}
	i := s.ins[s.next]
	s.next++
	return i, true
}

// access is one request the core sent to memory.
type access struct {
	cycle      uint64
	write, rmw bool
	addr       addrspace.Addr
	value      uint64
}

// fakeMem completes each request after a latency — the fixed latency,
// or the next of lats when set — and records traffic.
type fakeMem struct {
	now      *uint64
	latency  uint64
	lats     []uint64
	pending  []*coherence.MemRequest
	pendAt   []uint64
	values   map[addrspace.Addr]uint64
	log      []access
	accesses int
	rmws     int
}

func newFakeMem(now *uint64, lat uint64) *fakeMem {
	return &fakeMem{now: now, latency: lat, values: map[addrspace.Addr]uint64{}}
}

// Access panics if r is still outstanding: a core must not reuse a
// request before its Done has fired.
func (f *fakeMem) Access(r *coherence.MemRequest) {
	for _, p := range f.pending {
		if p == r {
			panic(fmt.Sprintf("cycle %d: request %+v reissued while outstanding", *f.now, *r))
		}
	}
	lat := f.latency
	if len(f.lats) > 0 {
		lat = f.lats[f.accesses%len(f.lats)]
	}
	f.accesses++
	f.log = append(f.log, access{*f.now, r.IsWrite, r.IsRMW, r.Addr, r.Value})
	f.pending = append(f.pending, r)
	f.pendAt = append(f.pendAt, *f.now+lat)
}

// tick completes every request due by now, in issue order.
func (f *fakeMem) tick() {
	for i := 0; i < len(f.pending); {
		if at := f.pendAt[i]; at <= *f.now {
			req := f.pending[i]
			f.pending = append(f.pending[:i], f.pending[i+1:]...)
			f.pendAt = append(f.pendAt[:i], f.pendAt[i+1:]...)
			switch {
			case req.IsRMW:
				f.rmws++
				old := f.values[req.Addr]
				f.values[req.Addr] = req.RMW.Apply(old, req.Value, req.Expected)
				req.Done(req, at, old)
			case req.IsWrite:
				f.values[req.Addr] = req.Value
				req.Done(req, at, req.Value)
			default:
				req.Done(req, at, f.values[req.Addr])
			}
			continue
		}
		i++
	}
}

// stallLog records the core's EvROBStall events.
type stallLog []obs.Event

func (l *stallLog) Emit(e obs.Event) { *l = append(*l, e) }

// rig drives one core the way the machine does: each cycle, memory
// completions are delivered first, and the core ticks only when
// NeedsTick says the tick can change its state. A core that settles
// cycles analytically (sleep, the compute drain) is therefore not
// ticked through them, as in a machine run.
type rig struct {
	c     *Core
	mem   *fakeMem
	src   *scriptSource
	now   uint64
	ticks int
}

func newRig(cfg Config, lat uint64, ins ...Instr) *rig {
	r := &rig{src: &scriptSource{ins: ins}}
	r.mem = newFakeMem(&r.now, lat)
	r.c = New(0, cfg, r.src, r.mem)
	return r
}

// cycle advances the rig one cycle.
func (r *rig) cycle() {
	r.now++
	r.mem.tick()
	if r.c.NeedsTick(r.now) {
		r.c.Tick(r.now)
		r.ticks++
	}
}

// run drives the core to completion and returns the cycle it finished
// in.
func (r *rig) run(t testing.TB) uint64 {
	t.Helper()
	for !r.c.Done() {
		if r.now >= 1_000_000 {
			t.Fatalf("core did not finish: %s", r.c.Describe())
		}
		r.cycle()
	}
	return r.now
}

// step advances n cycles and settles the core's statistics up to the
// last of them.
func (r *rig) step(n int) {
	for i := 0; i < n; i++ {
		r.cycle()
	}
	r.c.CatchUp(r.now)
}

func TestComputeThroughput(t *testing.T) {
	r := newRig(DefaultConfig(), 2, Instr{Kind: KCompute, N: 400})
	// 4-wide issue and retire: the first 4 issue in cycle 1, the last
	// 4 in cycle 100 and retire in cycle 101.
	if cycles := r.run(t); cycles != 101 {
		t.Fatalf("400 compute instructions took %d cycles, want 101", cycles)
	}
	if r.c.Stats.Retired != 400 || r.c.Stats.Cycles != 101 {
		t.Fatalf("retired %d by cycle %d", r.c.Stats.Retired, r.c.Stats.Cycles)
	}
	// The drain settles the middle of the run: the rig ticks the core
	// in only a handful of the 101 cycles.
	if r.ticks > 10 {
		t.Fatalf("core ticked in %d of 101 cycles", r.ticks)
	}
}

func TestRetiredCount(t *testing.T) {
	r := newRig(DefaultConfig(), 2,
		Instr{Kind: KCompute, N: 10},
		Instr{Kind: KLoad, Addr: 0x40},
		Instr{Kind: KStore, Addr: 0x80, Value: 7},
	)
	r.run(t)
	if r.c.Stats.Retired != 12 {
		t.Fatalf("retired = %d, want 12", r.c.Stats.Retired)
	}
	if r.c.Stats.Loads != 1 || r.c.Stats.Stores != 1 {
		t.Fatalf("loads=%d stores=%d", r.c.Stats.Loads, r.c.Stats.Stores)
	}
}

func TestLoadBlocksRetirement(t *testing.T) {
	r := newRig(DefaultConfig(), 200, Instr{Kind: KLoad, Addr: 0x40})
	if cycles := r.run(t); cycles < 200 {
		t.Fatalf("load retired before memory responded: %d cycles", cycles)
	}
}

func TestMemStallAttribution(t *testing.T) {
	r := newRig(DefaultConfig(), 100, Instr{Kind: KLoad, Addr: 0x40})
	r.run(t)
	if r.c.Stats.MemStallCycles < 90 {
		t.Fatalf("memory stall cycles = %d, want ~100", r.c.Stats.MemStallCycles)
	}
}

func TestComputeNotMemStalled(t *testing.T) {
	r := newRig(DefaultConfig(), 2, Instr{Kind: KCompute, N: 100})
	r.run(t)
	if r.c.Stats.MemStallCycles > 2 {
		t.Fatalf("pure compute charged %d memory-stall cycles", r.c.Stats.MemStallCycles)
	}
}

func TestLoadsOverlap(t *testing.T) {
	// Independent loads (no WantResult) must overlap: N loads at
	// latency L should take ~L + N, not N*L.
	var ins []Instr
	for i := 0; i < 20; i++ {
		ins = append(ins, Instr{Kind: KLoad, Addr: addrspace.Addr(i * 64)})
	}
	r := newRig(DefaultConfig(), 100, ins...)
	if cycles := r.run(t); cycles > 200 {
		t.Fatalf("independent loads did not overlap: %d cycles", cycles)
	}
}

func TestWantResultSerializes(t *testing.T) {
	// Dependent loads must serialize: each waits for the previous.
	var ins []Instr
	for i := 0; i < 5; i++ {
		ins = append(ins, Instr{Kind: KLoad, Addr: addrspace.Addr(i * 64), WantResult: true})
	}
	r := newRig(DefaultConfig(), 50, ins...)
	if cycles := r.run(t); cycles < 5*50 {
		t.Fatalf("dependent loads overlapped: %d cycles", cycles)
	}
}

func TestWantResultValueDelivered(t *testing.T) {
	r := newRig(DefaultConfig(), 5,
		Instr{Kind: KLoad, Addr: 0x40, WantResult: true},
		Instr{Kind: KCompute, N: 1},
	)
	r.mem.values[0x40] = 99
	r.run(t)
	if !r.src.lastPrevValid || r.src.lastPrev != 99 {
		t.Fatalf("source received prev=%d valid=%v, want 99", r.src.lastPrev, r.src.lastPrevValid)
	}
}

func TestRMWExecutesAtHead(t *testing.T) {
	r := newRig(DefaultConfig(), 10,
		Instr{Kind: KRMW, RMW: coherence.RMWFetchAdd, Addr: 0x40, Value: 3, WantResult: true},
		Instr{Kind: KCompute, N: 1},
	)
	r.mem.values[0x40] = 5
	r.run(t)
	if r.mem.rmws != 1 {
		t.Fatalf("rmws = %d", r.mem.rmws)
	}
	if r.mem.values[0x40] != 8 {
		t.Fatalf("fetch-add result = %d", r.mem.values[0x40])
	}
	if r.src.lastPrev != 5 {
		t.Fatalf("RMW old value = %d, want 5", r.src.lastPrev)
	}
}

func TestStoresDrainThroughWriteBuffer(t *testing.T) {
	r := newRig(DefaultConfig(), 30,
		Instr{Kind: KStore, Addr: 0x40, Value: 1},
		Instr{Kind: KCompute, N: 8},
	)
	cycles := r.run(t)
	if r.mem.values[0x40] != 1 {
		t.Fatal("store never reached memory")
	}
	// The store retires into the write buffer; compute continues while
	// it drains, so total time is near the store latency, not beyond.
	if cycles > 60 {
		t.Fatalf("store drain serialized execution: %d cycles", cycles)
	}
}

func TestWriteBufferCapacityStalls(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteBuffer = 4
	var ins []Instr
	for i := 0; i < 8; i++ {
		ins = append(ins, Instr{Kind: KStore, Addr: addrspace.Addr(i * 64), Value: 1})
	}
	r := newRig(cfg, 10_000, ins...) // stores never complete in time
	r.step(2000)
	// Only 4 stores fit the write buffer; retirement must have stalled.
	if r.c.Stats.Retired > 4 {
		t.Fatalf("retired %d stores past a full write buffer", r.c.Stats.Retired)
	}
	if r.c.Stats.MemStallCycles == 0 {
		t.Fatal("write-buffer stall not attributed to memory")
	}
}

func TestLoadQueueCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LoadQueue = 2
	var ins []Instr
	for i := 0; i < 6; i++ {
		ins = append(ins, Instr{Kind: KLoad, Addr: addrspace.Addr(i * 64)})
	}
	r := newRig(cfg, 10_000, ins...)
	r.step(100)
	if r.mem.accesses > 2 {
		t.Fatalf("issued %d loads past the load queue", r.mem.accesses)
	}
}

func TestROBCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROBSize = 8
	r := newRig(cfg, 10_000, // the first load never completes
		Instr{Kind: KLoad, Addr: 0x40},
		Instr{Kind: KCompute, N: 100},
	)
	r.step(100)
	if r.c.Stats.Retired != 0 {
		t.Fatal("retired past a blocked head")
	}
	// The ROB holds at most 8 instructions; the compute run must be
	// throttled behind the load.
	if r.c.robCount != 8 || r.c.computeRun != 93 {
		t.Fatalf("rob=%d computeRun=%d, want 8 and 93", r.c.robCount, r.c.computeRun)
	}
	if got := r.c.Describe(); got == "" {
		t.Fatal("describe empty")
	}
}

func TestDoneLifecycle(t *testing.T) {
	r := newRig(DefaultConfig(), 2)
	if r.c.Done() {
		t.Fatal("done before first tick")
	}
	r.cycle()
	if !r.c.Done() {
		t.Fatal("empty program not done after a tick")
	}
	r.c.Tick(r.now + 1) // ticking a finished core is a no-op
}

func TestZeroLengthComputeSkipped(t *testing.T) {
	r := newRig(DefaultConfig(), 2,
		Instr{Kind: KCompute, N: 0},
		Instr{Kind: KStore, Addr: 0x40, Value: 9},
	)
	r.run(t)
	if r.mem.values[0x40] != 9 {
		t.Fatal("store after empty compute lost")
	}
}

func TestFig7LatencyAccounting(t *testing.T) {
	r := newRig(DefaultConfig(), 40, Instr{Kind: KLoad, Addr: 0x40})
	r.run(t)
	if r.c.Stats.LoadROBLatency < 40 {
		t.Fatalf("load ROB latency = %d, want >= 40", r.c.Stats.LoadROBLatency)
	}
}

func TestPauseOccupiesTimeNotInstructions(t *testing.T) {
	r := newRig(DefaultConfig(), 2, Instr{Kind: KPause, N: 50})
	cycles := r.run(t)
	if r.c.Stats.Retired != 1 {
		t.Fatalf("pause retired %d instructions, want 1", r.c.Stats.Retired)
	}
	if cycles < 50 {
		t.Fatalf("pause finished in %d cycles, want >= 50", cycles)
	}
	if r.c.Stats.MemStallCycles > 2 {
		t.Fatalf("pause charged %d memory-stall cycles", r.c.Stats.MemStallCycles)
	}
}

// TestROBEntrySize pins a robEntry at 40 bytes on 64-bit hosts: a core
// holds ROBSize of them (180 in Table III), which with its load-queue
// requests is most of what building a core allocates.
func TestROBEntrySize(t *testing.T) {
	if unsafe.Sizeof(int(0)) != 8 {
		t.Skip("sized for 64-bit ints")
	}
	if n := unsafe.Sizeof(robEntry{}); n != 40 {
		t.Fatalf("robEntry is %d bytes, want 40", n)
	}
}
