// Package cpu models one out-of-order core at the fidelity the paper's
// metrics need: a 4-wide issue front end, a reorder buffer with in-order
// retirement, a load queue that exposes memory-level parallelism, a
// write buffer that absorbs stores at retirement, and the cycle
// attribution (memory stall vs. rest) that Figure 8 reports. Memory
// instructions carry real data values, so synchronization in the
// workloads (spin locks, barriers) executes rather than being modeled.
package cpu

import (
	"fmt"

	"repro/internal/addrspace"
	"repro/internal/coherence"
	"repro/internal/obs"
)

// InstrKind classifies one instruction handed to the core.
type InstrKind uint8

// The instruction vocabulary the workload generators emit.
const (
	KCompute InstrKind = iota // N back-to-back non-memory instructions
	KLoad
	KStore
	KRMW
	// KPause models a timed low-power wait (x86 PAUSE / backoff loop):
	// it occupies the pipeline for N cycles but retires as a single
	// instruction, so spin backoff neither inflates instruction counts
	// (MPKI denominators) nor dynamic energy.
	KPause
)

// Instr is one (or, for KCompute, a run of) instruction(s).
type Instr struct {
	Kind     InstrKind
	N        int // KCompute: run length
	Addr     addrspace.Addr
	Value    uint64 // store value / RMW operand
	Expected uint64 // RMW compare-and-swap comparand
	RMW      coherence.RMWKind
	// WantResult makes the instruction stream *data-dependent*: the
	// source's Next is not called again until this instruction's value
	// (load data / RMW old value) is available. Spin loops set it;
	// streaming accesses leave it unset so misses overlap.
	WantResult bool
}

// InstrSource produces a core's dynamic instruction stream. prevValid
// tells the source whether prev carries the result of the last
// WantResult instruction. Next returns ok=false when the thread has
// finished.
type InstrSource interface {
	Next(prev uint64, prevValid bool) (ins Instr, ok bool)
}

// MemPort is the core's path into the memory hierarchy (its L1
// controller).
type MemPort interface {
	Access(r *coherence.MemRequest)
}

// Config sizes the core (Table III).
type Config struct {
	IssueWidth  int // 4
	ROBSize     int // 180
	LoadQueue   int // 64
	WriteBuffer int // 64

	// Trace receives one EvROBStall per completed memory-stall episode;
	// nil disables emission. Excluded from JSON config round-trips.
	Trace obs.Sink `json:"-"`
}

// DefaultConfig returns the Table III core.
func DefaultConfig() Config {
	return Config{IssueWidth: 4, ROBSize: 180, LoadQueue: 64, WriteBuffer: 64}
}

// Fill sets every zero field to its Table III default. It is the one
// copy of the core defaults: machine.Config's normalization calls it,
// so a sparse and a spelled-out config resolve to the same machine.
func (c *Config) Fill() {
	if c.IssueWidth == 0 {
		c.IssueWidth = 4
	}
	if c.ROBSize == 0 {
		c.ROBSize = 180
	}
	if c.LoadQueue == 0 {
		c.LoadQueue = 64
	}
	if c.WriteBuffer == 0 {
		c.WriteBuffer = 64
	}
}

type robEntry struct {
	kind       InstrKind
	done       bool
	issuedMem  bool
	count      int // instructions this entry stands for (KCompute batches)
	issueCycle uint64
	readyAt    uint64 // compute completion
	ins        Instr
	value      uint64 // load/RMW result once done
}

// never marks a wake-up that depends purely on an external completion
// (a memory response, a write-buffer drain): the core cannot make
// progress on its own at any future cycle.
const never = ^uint64(0)

// storeToken carries one retired store through the memory hierarchy.
// The ROB slot is recycled the cycle the store retires, so the request
// cannot live in the slot; tokens are pooled per core and returned to
// the free list by their own completion callback, keeping the store
// drain path allocation-free.
type storeToken struct {
	req   coherence.MemRequest
	start uint64
}

// Stats collects the per-core measurements of the evaluation.
type Stats struct {
	Cycles          uint64
	Retired         uint64 // instructions retired (MPKI denominator)
	MemStallCycles  uint64 // Fig. 8 "Memory stall"
	Loads           uint64
	Stores          uint64
	RMWs            uint64
	LoadROBLatency  uint64 // Fig. 7: sum of ROB-entry -> retire cycles
	StoreROBLatency uint64
	StoreDrainLat   uint64 // extra: retirement -> memory completion
}

// Core is one simulated core.
type Core struct {
	id  int
	cfg Config
	mem MemPort
	src InstrSource

	rob     []robEntry
	robHead int
	robTail int
	// robCount counts instructions (the architectural ROB occupancy);
	// entryCount counts ring slots. They differ because back-to-back
	// compute instructions issued in the same cycle share one entry —
	// they carry identical readyAt timestamps, so batch retirement is
	// indistinguishable from retiring them one by one. entryCount <=
	// robCount always, so the ring cannot overflow.
	robCount   int
	entryCount int

	computeRun    int // remaining instructions of the current KCompute run
	fetched       Instr
	hasFetched    bool
	srcDone       bool
	awaiting      *robEntry // WantResult instruction we owe a value from
	haveResult    bool
	lastResult    uint64
	loadsInFlight int
	wbInFlight    int

	finished bool

	// Memory-stall episode tracking for EvROBStall (only maintained
	// when cfg.Trace is set, so tracing-off runs take one extra branch
	// per cycle and nothing else).
	stalled    bool
	stallStart uint64

	// Sleep/wake state for the machine's quiescence fast-forward. wake
	// is the earliest cycle Tick can make progress on its own (never =
	// external input required); extEvent flags that a memory completion
	// arrived since the last Tick; lastTick lets Tick catch up the
	// analytic stall accounting for skipped cycles; sleepStall caches
	// whether a skipped cycle counts as a memory stall (the verdict is
	// state-dependent and the state cannot change while asleep).
	wake       uint64
	extEvent   bool
	lastTick   uint64
	sleepStall bool

	// Allocation-free memory requests: slotReqs[i] is the request for
	// ROB slot i (loads and RMWs complete before their slot retires, so
	// the request is never live across a slot reuse); storeFree pools
	// the tokens that carry retired stores through the write buffer.
	slotReqs  []coherence.MemRequest
	storeFree []*storeToken

	Stats Stats
}

// New builds a core reading instructions from src and accessing memory
// through mem.
func New(id int, cfg Config, src InstrSource, mem MemPort) *Core {
	cfg.Fill()
	c := &Core{
		id:       id,
		cfg:      cfg,
		mem:      mem,
		src:      src,
		rob:      make([]robEntry, cfg.ROBSize),
		slotReqs: make([]coherence.MemRequest, cfg.ROBSize),
	}
	// One completion closure per ROB slot, built once: the rob and
	// slotReqs arrays are never reallocated, so slot pointers are
	// stable and the steady-state load/RMW path allocates nothing.
	for i := range c.slotReqs {
		e := &c.rob[i]
		c.slotReqs[i].Done = func(at uint64, v uint64) {
			e.done = true
			e.value = v
			c.extEvent = true
		}
	}
	return c
}

// ID returns the core's node id.
func (c *Core) ID() int { return c.id }

// Done reports whether the thread has finished and all its memory
// operations have drained.
func (c *Core) Done() bool { return c.finished }

// Describe renders the core's stall state for diagnostics.
func (c *Core) Describe() string {
	head := "empty"
	if c.robCount > 0 {
		h := &c.rob[c.robHead]
		head = fmt.Sprintf("kind=%d done=%v issuedMem=%v addr=%#x age=%d",
			h.kind, h.done, h.issuedMem, h.ins.Addr, c.Stats.Cycles-h.issueCycle)
	}
	return fmt.Sprintf("rob=%d head={%s} loadsInFlight=%d wb=%d awaiting=%v srcDone=%v",
		c.robCount, head, c.loadsInFlight, c.wbInFlight, c.awaiting != nil, c.srcDone)
}

// Tick advances the core one cycle: retire, then issue (retire-first
// frees ROB slots the same cycle, a common simplification). Ticks may
// skip cycles in which the core provably cannot make progress (see
// NeedsTick); the gap's stall accounting is settled analytically here,
// so a skipping schedule is byte-identical to a cycle-by-cycle one.
func (c *Core) Tick(now uint64) {
	if c.finished {
		return
	}
	if now > c.lastTick {
		c.catchUp(now - 1)
	}
	c.lastTick = now
	c.Stats.Cycles = now
	c.extEvent = false

	retired := c.retire(now)
	c.issue(now)

	stalledNow := false
	if retired == 0 && !c.idleDone() {
		if c.memoryBound(now) {
			c.Stats.MemStallCycles++
			stalledNow = true
		}
	}
	if c.cfg.Trace != nil {
		if stalledNow && !c.stalled {
			c.stalled, c.stallStart = true, now
		} else if !stalledNow && c.stalled {
			c.stalled = false
			c.cfg.Trace.Emit(obs.Event{Cycle: c.stallStart, Kind: obs.EvROBStall,
				Node: int32(c.id), Other: obs.NoNode, Line: obs.NoLine,
				A: now - c.stallStart})
		}
	}

	if c.srcDone && !c.hasFetched && c.computeRun == 0 && c.robCount == 0 && c.wbInFlight == 0 {
		c.finished = true
	}
	c.wake = c.nextWake(now)
	if c.wake > now+1 {
		// The stall verdict for a cycle with no retirement depends only
		// on state that cannot change while asleep (memoryBound ignores
		// the cycle number), so one evaluation covers every skipped
		// cycle.
		c.sleepStall = !c.idleDone() && c.memoryBound(now)
	} else if c.wake == now+1 {
		if k := c.computeJump(now); k > 0 {
			c.wake = now + 1 + k
			c.sleepStall = false // every jumped cycle retires; none stall
		}
	}
}

// minComputeJump is the smallest analytic compute drain worth the ROB
// scan that validates it.
const minComputeJump = 4

// computeJump detects the pure-compute steady state — every ROB entry
// is a ready compute batch, no memory operation is in flight, and the
// front end is feeding from an open compute run — and drains it
// analytically. In that state each upcoming cycle is fully determined:
// retirement takes exactly IssueWidth instructions off the head and
// issue refills exactly IssueWidth from the run, with nothing
// observable outside the core. computeJump settles k such cycles at
// once (Retired += k*width, computeRun -= k*width) and returns k so
// Tick can sleep through them; the machine's quiescence fast-forward
// then skips the cycles entirely. The ROB ring is left untouched: its
// entries stand for different (but indistinguishable) compute
// instructions of the same run, and their readyAt stamps are already
// in the past, which retirement treats identically. k leaves at least
// one width's worth of run behind, so the drain endgame — the final
// partial retire and the fetch of the next instruction — always plays
// out cycle-by-cycle, exactly as an unjumped run would.
func (c *Core) computeJump(now uint64) uint64 {
	width := c.cfg.IssueWidth
	if c.computeRun < width*(minComputeJump+1) || c.robCount < width ||
		c.loadsInFlight > 0 || c.wbInFlight > 0 || c.awaiting != nil || c.hasFetched {
		return 0
	}
	i := c.robHead
	for n := 0; n < c.entryCount; n++ {
		if e := &c.rob[i]; e.kind != KCompute || e.readyAt > now+1 {
			return 0
		}
		if i++; i == c.cfg.ROBSize {
			i = 0
		}
	}
	k := c.computeRun/width - 1
	c.computeRun -= k * width
	c.Stats.Retired += uint64(k) * uint64(width)
	return uint64(k)
}

// catchUp settles the analytic per-cycle accounting for the skipped
// cycles (lastTick, upto]: while asleep the core retires nothing and
// its state is frozen, so each skipped cycle contributes sleepStall to
// the memory-stall counter. With tracing on, a stall episode that
// begins inside the gap is opened retroactively at its true start
// cycle; opening emits nothing, so traced event order is unchanged.
func (c *Core) catchUp(upto uint64) {
	if upto <= c.lastTick {
		return
	}
	k := upto - c.lastTick
	if c.sleepStall {
		c.Stats.MemStallCycles += k
		if c.cfg.Trace != nil && !c.stalled {
			c.stalled, c.stallStart = true, c.lastTick+1
		}
	}
	c.lastTick = upto
	c.Stats.Cycles = upto
}

// CatchUp brings a sleeping core's per-cycle statistics up to date
// without advancing its pipeline, so diagnostics rendered mid-run
// (watchdog dumps) read exactly as they would under a cycle-by-cycle
// schedule. A core that ticked at now is unaffected.
func (c *Core) CatchUp(now uint64) {
	if c.finished {
		return
	}
	c.catchUp(now)
}

// NeedsTick reports whether Tick(now) can change any state: an
// external completion arrived, or the core's own wake-up cycle has
// been reached. The machine skips the call otherwise.
func (c *Core) NeedsTick(now uint64) bool {
	return !c.finished && (c.extEvent || c.wake <= now)
}

// NextWake returns the earliest cycle at which this core needs a Tick
// absent external events (never if it is blocked purely on memory);
// the machine folds it into the event horizon for fast-forwarding.
func (c *Core) NextWake() uint64 {
	if c.finished {
		return never
	}
	if c.extEvent {
		return c.lastTick + 1
	}
	return c.wake
}

// nextWake computes the wake-up cycle after a Tick at now. The default
// for any state where progress is possible (or merely not provably
// impossible) is now+1; readyAt timers sleep until they expire; states
// blocked purely on memory responses or write-buffer drain return
// never and rely on the completion callbacks setting extEvent.
func (c *Core) nextWake(now uint64) uint64 {
	if c.finished {
		return never
	}
	wake := never
	if c.robCount > 0 {
		h := &c.rob[c.robHead]
		switch h.kind {
		case KCompute, KPause:
			if h.readyAt <= now {
				return now + 1
			}
			wake = h.readyAt
		case KLoad:
			if h.done {
				return now + 1
			}
		case KRMW:
			if !h.issuedMem || h.done {
				return now + 1
			}
		case KStore:
			if c.wbInFlight < c.cfg.WriteBuffer {
				return now + 1
			}
		}
	}
	if c.robCount < c.cfg.ROBSize {
		if c.computeRun > 0 {
			return now + 1
		}
		if c.hasFetched {
			if c.fetched.Kind != KLoad || c.loadsInFlight < c.cfg.LoadQueue {
				return now + 1
			}
			// A fetched load blocked on a full load queue frees up only
			// when an earlier load retires, which the retire side above
			// already accounts for.
		} else if !c.srcDone && (c.awaiting == nil || c.haveResult) {
			return now + 1 // the source may produce anything; must tick
		}
	}
	return wake
}

// idleDone reports that there is genuinely nothing left to do.
func (c *Core) idleDone() bool {
	return c.srcDone && !c.hasFetched && c.computeRun == 0 && c.robCount == 0 && c.wbInFlight == 0
}

// memoryBound attributes a zero-retirement cycle: true when the head of
// the ROB is an incomplete memory instruction, when retirement is
// blocked on a full write buffer, or when the front end is starved
// waiting for a load value (spin loops).
func (c *Core) memoryBound(now uint64) bool {
	if c.robCount > 0 {
		h := &c.rob[c.robHead]
		switch h.kind {
		case KLoad, KRMW:
			return !h.done
		case KStore:
			return c.wbInFlight >= c.cfg.WriteBuffer
		case KCompute, KPause:
			return false
		}
	}
	// Empty ROB: stalled on a data-dependent fetch.
	return c.awaiting != nil && !c.haveResult
}

// retire commits up to IssueWidth completed instructions in order.
func (c *Core) retire(now uint64) int {
	n := 0
	width := c.cfg.IssueWidth
	for n < width && c.robCount > 0 {
		h := &c.rob[c.robHead]
		switch h.kind {
		case KCompute:
			if h.readyAt > now {
				return n
			}
			// Batch: every instruction in the entry shares readyAt, so
			// retire as many as the width allows in one step.
			take := width - n
			if take > h.count {
				take = h.count
			}
			c.Stats.Retired += uint64(take)
			c.robCount -= take
			h.count -= take
			n += take
			if h.count > 0 {
				return n // retire width exhausted mid-batch
			}
			c.advanceHead()
			continue
		case KPause:
			if h.readyAt > now {
				return n
			}
		case KLoad:
			if !h.done {
				return n
			}
			c.Stats.LoadROBLatency += now - h.issueCycle
			c.loadsInFlight--
		case KRMW:
			if !h.issuedMem {
				// RMWs execute when they reach their turn in the
				// consistency order (§IV-C): issue at ROB head.
				c.issueRMW(h, c.robHead)
				return n
			}
			if !h.done {
				return n
			}
			c.Stats.LoadROBLatency += now - h.issueCycle
		case KStore:
			if c.wbInFlight >= c.cfg.WriteBuffer {
				return n // write buffer full: retirement stalls
			}
			c.Stats.StoreROBLatency += now - h.issueCycle
			c.issueStore(now, h)
		}
		if (h.kind == KLoad || h.kind == KRMW) && h.ins.WantResult {
			c.lastResult = h.value
			c.haveResult = true
			c.awaiting = nil
		}
		c.Stats.Retired++
		c.advanceHead()
		c.robCount--
		n++
	}
	return n
}

func (c *Core) advanceHead() {
	c.robHead++
	if c.robHead == c.cfg.ROBSize {
		c.robHead = 0
	}
	c.entryCount--
}

// issue brings up to IssueWidth new instructions into the ROB.
func (c *Core) issue(now uint64) {
	for i := 0; i < c.cfg.IssueWidth; i++ {
		if c.robCount >= c.cfg.ROBSize {
			return
		}
		// Continue an open compute run without consulting the source.
		if c.computeRun > 0 {
			c.pushCompute(now)
			c.computeRun--
			continue
		}
		if !c.ensureFetched() {
			return
		}
		ins := c.fetched
		switch ins.Kind {
		case KCompute:
			if ins.N <= 0 {
				c.hasFetched = false
				i-- // zero-length run consumes no slot
				continue
			}
			c.computeRun = ins.N - 1
			c.hasFetched = false
			c.pushCompute(now)
		case KPause:
			n := uint64(ins.N)
			if n == 0 {
				n = 1
			}
			c.hasFetched = false
			c.pushTimed(KPause, now, now+n)
		case KLoad:
			if c.loadsInFlight >= c.cfg.LoadQueue {
				return
			}
			c.hasFetched = false
			c.pushLoad(now, ins)
		case KStore:
			c.hasFetched = false
			c.pushStore(now, ins)
		case KRMW:
			c.hasFetched = false
			c.pushRMW(now, ins)
		}
	}
}

// ensureFetched pulls the next instruction from the source unless a
// data dependency blocks the front end.
func (c *Core) ensureFetched() bool {
	if c.hasFetched {
		return true
	}
	if c.srcDone {
		return false
	}
	if c.awaiting != nil && !c.haveResult {
		return false // stalled on a WantResult value
	}
	prev, prevValid := c.lastResult, c.haveResult
	ins, ok := c.src.Next(prev, prevValid)
	c.haveResult = false
	if !ok {
		c.srcDone = true
		return false
	}
	c.fetched = ins
	c.hasFetched = true
	return true
}

func (c *Core) push(e robEntry) *robEntry {
	e.count = 1
	slot := &c.rob[c.robTail]
	*slot = e
	c.robTail = (c.robTail + 1) % c.cfg.ROBSize
	c.robCount++
	c.entryCount++
	return slot
}

// pushTimed appends a compute or pause entry by writing only the
// fields those kinds (and the diagnostics dump) ever read, instead of
// copying a whole zeroed robEntry through push — compute runs are the
// bulk of the instruction stream, and the full-struct store was the
// issue loop's largest cost.
func (c *Core) pushTimed(kind InstrKind, now, readyAt uint64) {
	slot := &c.rob[c.robTail]
	slot.kind = kind
	slot.done = false
	slot.issuedMem = false
	slot.count = 1
	slot.readyAt = readyAt
	slot.issueCycle = now
	slot.ins.Addr = 0
	c.robTail++
	if c.robTail == c.cfg.ROBSize {
		c.robTail = 0
	}
	c.robCount++
	c.entryCount++
}

// pushCompute appends one compute instruction, folding it into the
// tail entry when that entry is a compute batch issued this same cycle
// (identical readyAt — retirement cannot tell the difference).
func (c *Core) pushCompute(now uint64) {
	if c.entryCount > 0 {
		i := c.robTail - 1
		if i < 0 {
			i = c.cfg.ROBSize - 1
		}
		if t := &c.rob[i]; t.kind == KCompute && t.readyAt == now+1 {
			t.count++
			c.robCount++
			return
		}
	}
	c.pushTimed(KCompute, now, now+1)
}

func (c *Core) pushLoad(now uint64, ins Instr) {
	c.Stats.Loads++
	idx := c.robTail
	e := c.push(robEntry{kind: KLoad, issueCycle: now, ins: ins})
	if ins.WantResult {
		c.awaiting = e
	}
	c.loadsInFlight++
	r := &c.slotReqs[idx]
	r.IsWrite, r.IsRMW = false, false
	r.Addr = ins.Addr
	c.mem.Access(r)
}

func (c *Core) pushStore(now uint64, ins Instr) {
	c.Stats.Stores++
	e := c.push(robEntry{kind: KStore, issueCycle: now, ins: ins, done: true})
	if ins.WantResult {
		// A store's "result" is its own value, known at issue.
		e.value = ins.Value
		c.lastResult = ins.Value
		c.haveResult = true
	}
}

func (c *Core) pushRMW(now uint64, ins Instr) {
	c.Stats.RMWs++
	e := c.push(robEntry{kind: KRMW, issueCycle: now, ins: ins})
	if ins.WantResult {
		c.awaiting = e
	}
}

// issueRMW launches the atomic once the RMW reaches the ROB head.
func (c *Core) issueRMW(e *robEntry, idx int) {
	e.issuedMem = true
	r := &c.slotReqs[idx]
	r.IsWrite, r.IsRMW = false, true
	r.RMW = e.ins.RMW
	r.Addr = e.ins.Addr
	r.Value = e.ins.Value
	r.Expected = e.ins.Expected
	c.mem.Access(r)
}

// issueStore moves a retiring store into the write buffer; completion
// frees the slot asynchronously. Stores outlive their ROB slot, so
// they draw from the storeToken pool instead of the per-slot request
// array; the token's Done closure recycles it.
func (c *Core) issueStore(now uint64, e *robEntry) {
	c.wbInFlight++
	t := c.takeStoreToken()
	t.start = now
	t.req.IsWrite, t.req.IsRMW = true, false
	t.req.Addr = e.ins.Addr
	t.req.Value = e.ins.Value
	c.mem.Access(&t.req)
}

func (c *Core) takeStoreToken() *storeToken {
	if n := len(c.storeFree); n > 0 {
		t := c.storeFree[n-1]
		c.storeFree[n-1] = nil
		c.storeFree = c.storeFree[:n-1]
		return t
	}
	t := &storeToken{}
	t.req.Done = func(at uint64, _ uint64) {
		c.wbInFlight--
		c.Stats.StoreDrainLat += at - t.start
		c.extEvent = true
		c.storeFree = append(c.storeFree, t)
	}
	return t
}
