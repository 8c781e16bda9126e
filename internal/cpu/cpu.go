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
	var c Config
	c.Fill()
	return c
}

// Fill sets every zero field to its Table III default. It is the one
// copy of the core defaults: DefaultConfig and machine.Config's
// normalization call it, so a sparse and a spelled-out config resolve
// to the same machine.
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

// robEntry is one ROB ring slot. A compute entry stands for count
// consecutive compute instructions (see pushCompute); every other kind
// stands for one instruction. A store's and an RMW's operands live here
// until the store retires or the RMW launches; a load's request is
// built at issue (Core.loadReqs), so its slot keeps only the address.
type robEntry struct {
	kind       InstrKind
	rmw        coherence.RMWKind // RMW: the atomic operation
	done       bool              // load/RMW: Done has fired
	wantResult bool              // load/RMW: hand the value to the source at retire
	count      int32
	issueCycle uint64 // loads, stores, RMWs and pauses
	readyAt    uint64 // pauses; an RMW's comparand
	// value is a store's value or an RMW's operand, then a load's or
	// an RMW's result once done.
	value uint64
	addr  addrspace.Addr // loads, stores and RMWs
}

// never marks a wake-up that depends purely on an external completion
// (a memory response, a write-buffer drain): the core cannot make
// progress on its own at any future cycle.
const never = ^uint64(0)

// storeToken carries one retired store through the memory hierarchy.
// The ROB slot is recycled the cycle the store retires, so the request
// cannot live in the slot; tokens are pooled per core and returned to
// the free list on completion, keeping the store drain path
// allocation-free.
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
	// entryCount counts ring slots. They differ because consecutive
	// compute instructions share one entry: a compute instruction
	// issued at t is ready at t+1 and retirement runs before issue, so
	// every compute instruction retirement reaches is ready, and
	// retiring a merged entry is indistinguishable from retiring its
	// instructions one by one. entryCount <= robCount always, so the
	// ring cannot overflow.
	robCount   int
	entryCount int

	computeRun    int // remaining instructions of the current KCompute run
	fetched       Instr
	hasFetched    bool
	srcDone       bool
	awaiting      *robEntry // WantResult instruction we owe a value from
	haveResult    bool
	lastResult    uint64
	loadsInFlight int // loads in the ROB (the load queue's occupancy)
	memPending    int // loads and launched RMWs whose Done has not fired
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
	// state-dependent and the state cannot change while asleep);
	// drainTo is the last cycle of a compute drain still to be settled
	// (see computeJump).
	wake       uint64
	extEvent   bool
	lastTick   uint64
	sleepStall bool
	drainTo    uint64

	// noDrain turns the compute drain off, so a core ticks through
	// every cycle the drain would settle. Only the package's tests set
	// it, to check the drain against the cycles it replaces.
	noDrain bool

	// Allocation-free memory requests, sized to what can be in flight.
	// Loads enter and retire in program order, so loadReqs is a ring:
	// the k-th load in the ROB (oldest first) uses slot loadHead+k,
	// which its retirement frees. An RMW launches only at the ROB head
	// and retires before the next can get there, so rmwReq serves them
	// all, and rmwIssued says the head RMW has launched. A load's or
	// RMW's Tag is its ROB slot. tokens carry retired stores through the
	// write buffer, Tag indexing tokens, and storeFree lists the idle
	// ones. Every request completes through memDone.
	loadReqs  []coherence.MemRequest
	loadHead  int
	rmwReq    coherence.MemRequest
	rmwIssued bool
	tokens    []*storeToken
	storeFree []int32
	memDone   func(r *coherence.MemRequest, at, v uint64)

	Stats Stats
}

// New builds a core reading instructions from src and accessing memory
// through mem.
func New(id int, cfg Config, src InstrSource, mem MemPort) *Core {
	cfg.Fill()
	c := &Core{
		id:  id,
		cfg: cfg,
		mem: mem,
		src: src,
		rob: make([]robEntry, cfg.ROBSize),
		// The ROB bounds the loads in flight as well as the load queue.
		loadReqs: make([]coherence.MemRequest, min(cfg.LoadQueue, cfg.ROBSize)),
	}
	// One completion callback per core: the rob and loadReqs arrays
	// are never reallocated, so a slot's index names it for the whole
	// run, and the steady-state memory path allocates nothing.
	c.memDone = c.complete
	for i := range c.loadReqs {
		c.loadReqs[i].Done = c.memDone
	}
	c.rmwReq.IsRMW = true
	c.rmwReq.Done = c.memDone
	return c
}

// ID returns the core's node id.
func (c *Core) ID() int { return c.id }

// Done reports whether the thread has finished and all its memory
// operations have drained.
func (c *Core) Done() bool { return c.finished }

// Describe renders the core's stall state for diagnostics. A compute
// head has no age: it never blocks retirement, and a merged entry has
// no single issue cycle.
func (c *Core) Describe() string {
	head := "empty"
	if c.robCount > 0 {
		h := &c.rob[c.robHead]
		var addr addrspace.Addr
		if h.kind != KCompute && h.kind != KPause {
			addr = h.addr
		}
		head = fmt.Sprintf("kind=%d done=%v issuedMem=%v addr=%#x", h.kind, h.done, c.rmwIssued, addr)
		if h.kind != KCompute {
			head += fmt.Sprintf(" age=%d", c.Stats.Cycles-h.issueCycle)
		}
	}
	return fmt.Sprintf("rob=%d head={%s} loadsInFlight=%d wb=%d awaiting=%v srcDone=%v",
		c.robCount, head, c.loadsInFlight, c.wbInFlight, c.awaiting != nil, c.srcDone)
}

// Tick advances the core one cycle: retire, then issue (retire-first
// frees ROB slots the same cycle, a common simplification). Ticks may
// skip cycles in which the core provably cannot make progress, or
// whose progress it has settled analytically (see NeedsTick); the
// gap's accounting is settled here, so a skipping schedule is
// byte-identical to a cycle-by-cycle one.
func (c *Core) Tick(now uint64) {
	if c.finished {
		return
	}
	if now > c.lastTick {
		c.catchUp(now - 1)
	}
	// A Tick inside a drain (a caller not honouring NeedsTick) plays
	// this cycle itself; computeJump below may start a new drain.
	c.drainTo = 0
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
			c.sleepStall = false // every drained cycle retires; none stall
		}
	}
}

// minComputeJump is the smallest analytic compute drain worth the ROB
// scan that validates it.
const minComputeJump = 4

// computeJump detects the compute steady state — the front end is
// feeding from an open compute run, no memory request is outstanding,
// and the ROB head holds ready compute and completed loads — and
// drains it analytically. In that state each upcoming cycle is fully
// determined: retirement takes exactly IssueWidth instructions off the
// head (robCount >= IssueWidth, every one of them ready) and issue
// refills exactly IssueWidth from the run, with nothing observable
// outside the core. The drain is bounded by the first instruction
// that cannot retire at full width unaided (a store, an RMW, a pause;
// loads are complete because memPending is 0, and none wants its
// result because awaiting is nil), and it leaves at least one width's
// worth of run behind, so the endgame — the partial retire at that
// instruction and the fetch of the next one — plays out cycle by
// cycle, exactly as an undrained run would. computeJump records the k
// drained cycles in drainTo and returns k so Tick can sleep through
// them; catchUp settles them (see drain) when the core next wakes or
// is caught up for a diagnostic.
func (c *Core) computeJump(now uint64) uint64 {
	width := c.cfg.IssueWidth
	if c.noDrain || c.computeRun < width*(minComputeJump+1) || c.robCount < width ||
		c.memPending > 0 || c.wbInFlight > 0 || c.awaiting != nil || c.hasFetched {
		return 0
	}
	k := c.computeRun/width - 1
	i := c.robHead
	for n, d := 0, 0; n < c.entryCount && d < k*width; n++ {
		switch e := &c.rob[i]; e.kind {
		case KCompute:
			d += int(e.count)
		case KLoad:
			d++
		default:
			k = min(k, d/width)
		}
		if i++; i == c.cfg.ROBSize {
			i = 0
		}
	}
	if k < minComputeJump {
		return 0
	}
	c.drainTo = now + uint64(k)
	return uint64(k)
}

// drain settles m drained cycles starting at cycle from. Instruction
// pos (counted from the head) retires in cycle from+pos/IssueWidth,
// which is what a completed load is charged; the m*IssueWidth
// instructions issued from the run join the compute tail, less those
// that retired within the same m cycles (a small ROB turns over).
func (c *Core) drain(from uint64, m int) {
	width := c.cfg.IssueWidth
	n := m * width
	pos := 0
	for pos < n && c.robCount > 0 {
		h := &c.rob[c.robHead]
		if h.kind == KCompute {
			take := min(n-pos, int(h.count))
			h.count -= int32(take)
			c.robCount -= take
			pos += take
			if h.count > 0 {
				break
			}
		} else { // a completed load: computeJump admits nothing else
			c.Stats.LoadROBLatency += from + uint64(pos/width) - h.issueCycle
			c.retireLoad()
			c.robCount--
			pos++
		}
		c.advanceHead()
	}
	c.pushCompute(from+uint64(m)-1, pos)
	c.computeRun -= n
	c.Stats.Retired += uint64(n)
}

// catchUp settles the analytic per-cycle accounting for the skipped
// cycles (lastTick, upto]: the drained ones (drainTo) retire and issue
// as drain computes, and in the others the core retires nothing and
// its state is frozen, so each contributes sleepStall to the
// memory-stall counter. With tracing on, a stall episode that begins
// inside the gap is opened retroactively at its true start cycle;
// opening emits nothing, so traced event order is unchanged.
func (c *Core) catchUp(upto uint64) {
	if upto <= c.lastTick {
		return
	}
	if c.drainTo > c.lastTick {
		c.drain(c.lastTick+1, int(min(upto, c.drainTo)-c.lastTick))
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

// CatchUp brings a sleeping core's per-cycle statistics and pipeline
// up to date, so diagnostics rendered mid-run (watchdog dumps) read
// exactly as they would under a cycle-by-cycle schedule. A core that
// ticked at now is unaffected.
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
// impossible) is now+1; pause timers sleep until they expire; states
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
		case KCompute:
			return now + 1
		case KPause:
			if h.readyAt <= now {
				return now + 1
			}
			wake = h.readyAt
		case KLoad:
			if h.done {
				return now + 1
			}
		case KRMW:
			if !c.rmwIssued || h.done {
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
			// Always ready (see robCount): retire as many of the
			// entry's instructions as the width allows in one step.
			take := min(width-n, int(h.count))
			c.Stats.Retired += uint64(take)
			c.robCount -= take
			h.count -= int32(take)
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
			c.retireLoad()
		case KRMW:
			if !c.rmwIssued {
				// RMWs execute when they reach their turn in the
				// consistency order (§IV-C): issue at ROB head.
				c.issueRMW(h)
				return n
			}
			if !h.done {
				return n
			}
			c.rmwIssued = false
			c.Stats.LoadROBLatency += now - h.issueCycle
		case KStore:
			if c.wbInFlight >= c.cfg.WriteBuffer {
				return n // write buffer full: retirement stalls
			}
			c.Stats.StoreROBLatency += now - h.issueCycle
			c.issueStore(now, h)
		}
		if h.wantResult {
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

// retireLoad frees the oldest load's load-queue slot.
func (c *Core) retireLoad() {
	c.loadsInFlight--
	if c.loadHead++; c.loadHead == len(c.loadReqs) {
		c.loadHead = 0
	}
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
	left := c.cfg.IssueWidth
	for left > 0 {
		room := c.cfg.ROBSize - c.robCount
		if room == 0 {
			return
		}
		// Continue an open compute run without consulting the source,
		// as many instructions as the width and the ROB allow at once.
		if c.computeRun > 0 {
			n := min(left, room, c.computeRun)
			c.pushCompute(now, n)
			c.computeRun -= n
			left -= n
			continue
		}
		if !c.ensureFetched() {
			return
		}
		ins := &c.fetched
		switch ins.Kind {
		case KCompute:
			// Opens the run the next iteration issues from; a
			// zero-length run consumes no slot.
			c.hasFetched = false
			c.computeRun = max(ins.N, 0)
			continue
		case KPause:
			n := uint64(ins.N)
			if n == 0 {
				n = 1
			}
			c.hasFetched = false
			c.pushTimed(KPause, now, now+n, 1)
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
		left--
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

// pushTimed appends a compute or pause entry of n instructions by
// writing only the fields those kinds (and the diagnostics dump) ever
// read.
func (c *Core) pushTimed(kind InstrKind, now, readyAt uint64, n int) {
	slot := &c.rob[c.robTail]
	slot.kind = kind
	slot.done = false
	slot.wantResult = false
	slot.count = int32(n)
	slot.readyAt = readyAt
	slot.issueCycle = now
	c.robTail++
	if c.robTail == c.cfg.ROBSize {
		c.robTail = 0
	}
	c.robCount += n
	c.entryCount++
}

// pushCompute appends n compute instructions, folding them into the
// tail entry when that is a compute entry, whatever cycle it was
// issued in: retirement cannot tell the difference (see robCount).
func (c *Core) pushCompute(now uint64, n int) {
	if c.entryCount > 0 {
		i := c.robTail - 1
		if i < 0 {
			i = c.cfg.ROBSize - 1
		}
		if t := &c.rob[i]; t.kind == KCompute {
			t.count += int32(n)
			c.robCount += n
			return
		}
	}
	c.pushTimed(KCompute, now, now+1, n)
}

// pushMem appends a load, store or RMW entry with its operands, where
// the RMW launch, the store's write buffer entry and Describe read
// them.
func (c *Core) pushMem(kind InstrKind, now uint64, ins *Instr) *robEntry {
	e := &c.rob[c.robTail]
	*e = robEntry{kind: kind, rmw: ins.RMW, count: 1, issueCycle: now,
		readyAt: ins.Expected, value: ins.Value, addr: ins.Addr}
	c.robTail++
	if c.robTail == c.cfg.ROBSize {
		c.robTail = 0
	}
	c.robCount++
	c.entryCount++
	return e
}

func (c *Core) pushLoad(now uint64, ins *Instr) {
	c.Stats.Loads++
	i := c.loadHead + c.loadsInFlight
	if i >= len(c.loadReqs) {
		i -= len(c.loadReqs)
	}
	r := &c.loadReqs[i]
	r.Tag, r.Addr = int32(c.robTail), ins.Addr
	e := c.pushMem(KLoad, now, ins)
	if ins.WantResult {
		e.wantResult = true
		c.awaiting = e
	}
	c.loadsInFlight++
	c.memPending++
	c.mem.Access(r)
}

func (c *Core) pushStore(now uint64, ins *Instr) {
	c.Stats.Stores++
	c.pushMem(KStore, now, ins).done = true
	if ins.WantResult {
		// A store's "result" is its own value, known at issue.
		c.lastResult = ins.Value
		c.haveResult = true
	}
}

func (c *Core) pushRMW(now uint64, ins *Instr) {
	c.Stats.RMWs++
	e := c.pushMem(KRMW, now, ins)
	if ins.WantResult {
		e.wantResult = true
		c.awaiting = e
	}
}

// issueRMW launches the RMW e, which has reached the ROB head.
func (c *Core) issueRMW(e *robEntry) {
	c.rmwIssued = true
	c.memPending++
	r := &c.rmwReq
	r.Tag = int32(c.robHead)
	r.Addr, r.Value, r.Expected, r.RMW = e.addr, e.value, e.readyAt, e.rmw
	c.mem.Access(r)
}

// issueStore moves the retiring store e into the write buffer;
// completion frees the buffer entry asynchronously. Stores outlive
// their ROB slot, so they travel in a pooled storeToken.
func (c *Core) issueStore(now uint64, e *robEntry) {
	c.wbInFlight++
	t := c.takeStoreToken()
	t.start = now
	t.req.Addr = e.addr
	t.req.Value = e.value
	c.mem.Access(&t.req)
}

func (c *Core) takeStoreToken() *storeToken {
	if n := len(c.storeFree); n > 0 {
		t := c.tokens[c.storeFree[n-1]]
		c.storeFree = c.storeFree[:n-1]
		return t
	}
	t := &storeToken{}
	t.req.IsWrite = true
	t.req.Tag = int32(len(c.tokens))
	t.req.Done = c.memDone
	c.tokens = append(c.tokens, t)
	return t
}

// complete is the Done of every request the core issues. A write is a
// retired store whose Tag indexes tokens; anything else is a load or
// RMW whose Tag is its ROB slot.
func (c *Core) complete(r *coherence.MemRequest, at, v uint64) {
	c.extEvent = true
	if r.IsWrite {
		c.wbInFlight--
		c.Stats.StoreDrainLat += at - c.tokens[r.Tag].start
		c.storeFree = append(c.storeFree, r.Tag)
		return
	}
	e := &c.rob[r.Tag]
	e.done = true
	e.value = v
	c.memPending--
}
