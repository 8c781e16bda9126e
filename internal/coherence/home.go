package coherence

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/addrspace"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/stats"
)

// DirState is the stable state of a directory entry.
type DirState uint8

// Directory entry states (Fig. 3/4b): the MESI directory states plus W.
const (
	DirInvalid  DirState = iota // no cache holds the line (data may be in LLC)
	DirShared                   // read-only copies tracked by pointers (or B bit)
	DirOwned                    // one cache in E or M
	DirWireless                 // WiDir W state: SharerCount replaces pointers
)

// String names the state.
func (s DirState) String() string {
	switch s {
	case DirInvalid:
		return "DI"
	case DirShared:
		return "DS"
	case DirOwned:
		return "DO"
	case DirWireless:
		return "DW"
	}
	return fmt.Sprintf("DirState(%d)", uint8(s))
}

// txnKind identifies the in-flight transaction a busy entry is running.
type txnKind uint8

const (
	txNone       txnKind = iota
	txFetchMem           // waiting for MemData
	txFwdGetS            // waiting for the owner's CopyBack
	txFwdGetX            // waiting for the requester's XferAck
	txInvAll             // collecting InvAcks before granting ownership
	txSToW               // waiting for the BrWirUpgr ToneAck (Table II S->W)
	txWAddSharer         // waiting for WirUpgrAck (Table II W->W case 1)
	txWToS               // collecting WirDwgrAcks (Table II W->S)
	txEvict              // recalling/invalidating to evict the entry
)

// txn carries a busy entry's transaction context.
type txn struct {
	kind      txnKind
	requester int
	reqType   MsgType // a memory fetch's GetS/GetX, which picks its grant
	reqID     uint64  // echoed in the eventual grant
	acksLeft  int
	ackIDs    []int
	cancelTx  uint64 // handle of a wireless broadcast to withdraw if still queued
	started   uint64 // cycle the transaction began (age watchdog)

	// The directory's own broadcasts report to records carried here, so
	// a pending W eviction or S->W commit allocates nothing. A free list
	// per record would instead grow HomeCtrl into a larger size class.
	evict   wEviction
	upgrade upgrade
}

// wEviction drops a W entry once its WirInv broadcast serializes
// (Table II W->I). It is the broadcast's TxCallback.
type wEviction struct {
	h *HomeCtrl
	e *DirEntry
}

// TxDone implements TxCallback.
func (ev *wEviction) TxDone(now uint64) { ev.h.finishEvict(ev.e) }

// TxAborted implements TxCallback. Directory broadcasts are privileged,
// so they are never aborted.
func (ev *wEviction) TxAborted(uint64, bool) {}

// upgrade commits Table II's S->W transition. It is the BrWirUpgr
// broadcast's TxCallback: at the serialization point every tone antenna
// (raised during delivery fan-out) is active, so TxDone waits for the
// tone channel to fall silent, and Run then commits.
type upgrade struct {
	h        *HomeCtrl
	e        *DirEntry
	t        *txn
	newCount int
}

// TxDone implements TxCallback.
func (u *upgrade) TxDone(now uint64) { u.h.env.WaitToneSilent(u) }

// TxAborted implements TxCallback. Directory broadcasts are privileged,
// so they are never aborted.
func (u *upgrade) TxAborted(uint64, bool) {}

// Run implements engine.Runner: the Tone-Channel Acknowledgment is
// complete.
func (u *upgrade) Run(now uint64) {
	h, e, t := u.h, u.e, u.t
	if e.busy != t {
		h.fail(e.Line, "S->W transaction displaced")
		return
	}
	e.faultFails = 0
	if h.cfg.Trace != nil {
		h.cfg.Trace.Emit(obs.Event{Cycle: now, Kind: obs.EvWUpgrade,
			Node: int32(h.id), Other: obs.NoNode, Line: e.Line,
			A: uint64(u.newCount)})
	}
	e.busy = nil
	e.State = DirWireless
	e.SharerCount = u.newCount
	// Swap rather than copy: the snapshot takes over the sharer list's
	// backing array (it is being cleared anyway), keeping the commit
	// allocation-free.
	e.staleWired, e.Sharers = e.Sharers, e.staleWired[:0]
	e.staleWiredAll = e.Broadcast || e.CoarseVec != 0
	e.Broadcast = false
	e.CoarseVec = 0
	e.SharerApprox = 0
	h.env.Unjam(e.Line, h.id)
	h.freeTxn(t)
	h.drainDeferred(e)
}

// DirEntry is one directory entry co-located with its LLC line. The
// WiDir additions (Fig. 3) are the Wireless state and the reuse of the
// sharer-pointer field as SharerCount.
type DirEntry struct {
	Line         addrspace.Line
	State        DirState
	Sharers      []int  // DirShared precise pointers (<= MaxPointers)
	Broadcast    bool   // overflow: Dir_iB broadcast bit / Dir_iCV_r coarse mode
	CoarseVec    uint64 // Dir_iCV_r: one bit per CoarseRegion-node region
	SharerApprox int    // sharer count while overflowed
	Owner        int    // DirOwned
	OwnerDirty   bool   // owner may hold a Modified copy
	SharerCount  int    // DirWireless
	Words        [addrspace.WordsPerLine]uint64
	HasData      bool // LLC copy valid
	Dirty        bool // LLC copy newer than memory
	busy         *txn
	deferred     []*Msg // puts queued while busy; the entry owns them
	lru          uint64
	faultFails   int // consecutive failed wireless broadcasts (W demotion)

	// staleWired snapshots the wired-era sharer pointers that were
	// collapsed into SharerCount at the S->W commit. A wired eviction
	// notice (PutS/PutE/PutM) reaching the count-only DW state may
	// only decrement SharerCount if its sender is in this snapshot:
	// per-source FIFO ordering guarantees any core that is part of the
	// wireless membership delivered its older puts before joining, so
	// a notice from outside the snapshot is provably stale (e.g. an
	// owner deposed by a forward served from its victim buffer) and
	// decrementing for it would undercount the W->S demotion.
	staleWired []int
	// staleWiredAll marks an imprecise snapshot: the sharer set had
	// overflowed to broadcast/coarse mode at the upgrade, so sender
	// identities are unknown and any wired notice is counted.
	staleWiredAll bool
}

// takeStaleWired reports whether a wired eviction notice from src may
// decrement SharerCount, consuming src's snapshot slot so a second
// notice from the same node cannot double-count.
func (e *DirEntry) takeStaleWired(src int) bool {
	if e.staleWiredAll {
		return true
	}
	for i, n := range e.staleWired {
		if n == src {
			e.staleWired = append(e.staleWired[:i], e.staleWired[i+1:]...)
			return true
		}
	}
	return false
}

// Busy reports whether a transaction is in flight for the entry.
func (e *DirEntry) Busy() bool { return e.busy != nil }

// HomeStats aggregates per-slice directory measurements.
type HomeStats struct {
	GetS            uint64
	GetX            uint64
	NACKs           uint64
	Invalidations   uint64 // wired Inv messages sent
	BroadcastInvs   uint64 // Dir_3B overflow invalidation rounds
	SToW            uint64 // wireless upgrades (Table II S->W)
	WToS            uint64 // wireless downgrades (Table II W->S)
	WirInvs         uint64 // W entry evictions (Table II W->I)
	FaultDemotions  uint64 // W->S downgrades forced by channel faults
	DirEvictions    uint64
	LLCAccesses     uint64           // energy accounting
	SharersAtUpd    *stats.Histogram // Fig. 5: sharers updated per wireless write
	UpdateSharerSum uint64           // numerator for the mean sharers metric
}

// DirScheme selects how the directory handles pointer overflow.
type DirScheme uint8

// The two limited-pointer overflow schemes from the paper's Section II-C
// (Agarwal et al. / Gupta et al.): Dir_iB sets a broadcast bit, so a
// later write invalidates every node; Dir_iCV_r falls back to a coarse
// bit vector where each bit covers a region of CoarseRegion nodes, so a
// later write invalidates only the regions that held sharers. WiDir
// transitions lines to the Wireless state before overflow can occur, so
// the scheme only shapes Baseline behaviour.
const (
	DirB DirScheme = iota
	DirCV
)

// String names the scheme as in the literature.
func (s DirScheme) String() string {
	if s == DirCV {
		return "Dir_iCV_r"
	}
	return "Dir_iB"
}

// HomeConfig parameterizes one LLC slice + directory controller.
type HomeConfig struct {
	Protocol        Protocol
	Scheme          DirScheme
	MaxPointers     int      // Dir_iB pointer count (Table III: 3)
	MaxWiredSharers int      // WiDir threshold (Table III: 3; <= MaxPointers)
	CoarseRegion    int      // Dir_iCV_r: nodes per coarse-vector bit
	Entries         int      // LLC slice capacity in lines
	LLCLatency      uint64   // local bank round-trip (Table III: 12)
	Trace           obs.Sink // structured event sink (nil = off)

	// FaultDirDelay, when non-nil, draws extra LLC latency per
	// GetS/GetX (fault injection: tag-bank contention). The request is
	// simply served later; the NACK discipline makes this safe.
	FaultDirDelay func() uint64
}

// FaultDemoteAfter is how many consecutive failed wireless broadcasts
// for a W line (NoteWirelessFault) the directory tolerates before
// demoting the line to wired S — the graceful degradation path under
// sustained channel faults.
const FaultDemoteAfter = 4

// entryChunk is the number of directory entries one slab chunk holds.
const entryChunk = 64

// HomeCtrl is the directory controller of one node's LLC slice. It runs
// the home side of the wired MESI protocol (Dir_3B) and of WiDir's
// Table II transitions.
type HomeCtrl struct {
	id      int
	cfg     HomeConfig
	env     Env
	entries lineTable[*DirEntry]
	// entryFree recycles dead directory entries (with their Sharers and
	// deferred scratch arrays), so steady-state allocate/evict churn
	// stops hitting the allocator; txnFree and reqFree do the same for
	// transaction records and request runners. New entries are cut from
	// entrySlab, a chunk of entryChunk entries that never moves, instead
	// of one heap object each.
	entryFree pool.Free[DirEntry]
	entrySlab []DirEntry
	txnFree   pool.Free[txn]
	reqFree   pool.Free[requestRunner]
	lruTick   uint64

	// busyQ is a ring of the entries that turned busy, in start order,
	// busyLen of them from busyHead on, for the age watchdog's
	// oldestBusy. Removal is lazy: a reference whose entry is no longer
	// busy with a transaction of the same start is dropped once it
	// reaches the front.
	busyQ    []busyRef
	busyHead int
	busyLen  int

	// Memory backing store: the golden contents of lines not resident in
	// any LLC slice. Shared across slices via the machine (set once).
	Memory *MemoryImage

	Stats HomeStats
}

// NewHome builds the controller for node id. It takes cfg as given:
// the Table III defaults live in machine.Config, which passes every field.
func NewHome(id int, cfg HomeConfig, env Env) *HomeCtrl {
	if cfg.MaxWiredSharers > cfg.MaxPointers {
		//lint:deterministic construction-time config validation; no Env exists yet to report a ProtocolError through
		panic("coherence: MaxWiredSharers must not exceed the directory pointer count")
	}
	return &HomeCtrl{
		id:  id,
		cfg: cfg,
		env: env,
		Stats: HomeStats{
			SharersAtUpd: stats.NewHistogram(0, 6, 11, 26, 50),
		},
	}
}

// ID returns the node id.
func (h *HomeCtrl) ID() int { return h.id }

// Entry returns the directory entry for a line, or nil (for checkers).
func (h *HomeCtrl) Entry(l addrspace.Line) *DirEntry {
	e, _ := h.entries.get(l)
	return e
}

// ForEachEntry iterates entries in ascending line order for invariant
// checking and dumps, so checker reports and diagnostics are identical
// across runs regardless of table layout.
func (h *HomeCtrl) ForEachEntry(fn func(*DirEntry)) {
	for _, line := range h.entries.sortedKeys() {
		e, _ := h.entries.get(line)
		fn(e)
	}
}

// HasBusy reports whether any entry has a transaction in flight.
func (h *HomeCtrl) HasBusy() bool {
	busy := false
	h.entries.forEach(func(_ addrspace.Line, e *DirEntry) bool {
		if e.Busy() {
			busy = true
			return false
		}
		return true
	})
	return busy
}

// Describe renders the busy entries for diagnostics, in line order.
func (h *HomeCtrl) Describe() string {
	s := ""
	h.ForEachEntry(func(e *DirEntry) {
		if e.Busy() {
			s += fmt.Sprintf("line=%#x state=%v txn=%v acksLeft=%d deferred=%d; ",
				e.Line, e.State, e.busy.kind, e.busy.acksLeft, len(e.deferred))
		}
	})
	return s
}

// dumpEntry renders one entry's full state for protocol-error dumps.
func (h *HomeCtrl) dumpEntry(e *DirEntry) string {
	s := fmt.Sprintf("entry line=%#x state=%v sharers=%v bcast=%v count=%d owner=%d ownerDirty=%v hasData=%v dirty=%v deferred=%d",
		e.Line, e.State, e.Sharers, e.Broadcast, e.SharerCount, e.Owner, e.OwnerDirty, e.HasData, e.Dirty, len(e.deferred))
	if e.busy != nil {
		s += fmt.Sprintf(" txn=%v requester=%d acksLeft=%d ackIDs=%v started=%d",
			e.busy.kind, e.busy.requester, e.busy.acksLeft, e.busy.ackIDs, e.busy.started)
	}
	return s
}

// fail reports a protocol violation with the line's state dump and
// returns; the machine latches the error and ends the run.
func (h *HomeCtrl) fail(line addrspace.Line, format string, args ...any) {
	dump := "no entry"
	if e := h.Entry(line); e != nil {
		dump = h.dumpEntry(e)
	}
	if busy := h.Describe(); busy != "" {
		dump += " | busy: " + busy
	}
	h.env.ReportProtocolError(&ProtocolError{
		Cycle: h.env.Now(), Node: h.id, Ctrl: "home", Line: line,
		Reason: fmt.Sprintf(format, args...), Dump: dump,
	})
}

// OldestTxn returns the oldest in-flight transaction of this slice for
// the age watchdog and Diagnose, or ok=false when quiet. Selection is
// min-by (started, line), which no map order can perturb.
func (h *HomeCtrl) OldestTxn() (TxnInfo, bool) {
	best := h.oldestBusy()
	if best == nil {
		return TxnInfo{}, false
	}
	t := best.busy
	info := TxnInfo{
		Node: h.id, Ctrl: "home", Line: best.Line,
		State: best.State.String(), Kind: t.kind.String(),
		Started: t.started, AcksLeft: t.acksLeft,
	}
	switch t.kind {
	case txFwdGetS, txFwdGetX:
		info.Waiting = []int{best.Owner}
	case txInvAll:
		info.Waiting = append([]int(nil), best.Sharers...)
	case txEvict:
		if best.State == DirOwned {
			info.Waiting = []int{best.Owner}
		} else {
			info.Waiting = append([]int(nil), best.Sharers...)
		}
	case txFetchMem, txSToW, txWAddSharer:
		info.Waiting = []int{t.requester}
	default:
		// txWToS collects WirDwgrAcks from sharers whose identities the
		// downgrade is still discovering; there is no node set to report.
	}
	return info, true
}

// OldestStart returns the start cycle of this slice's oldest in-flight
// transaction without building its TxnInfo (the age watchdog's
// allocation-free pre-check), or ok=false when quiet.
func (h *HomeCtrl) OldestStart() (uint64, bool) {
	if e := h.oldestBusy(); e != nil {
		return e.busy.started, true
	}
	return 0, false
}

// busyRef is one busyQ reference: an entry and the start cycle of the
// transaction it was made busy with.
type busyRef struct {
	e       *DirEntry
	started uint64
}

// live reports whether r's entry is still busy with a transaction of
// r's start. A later transaction of the same start is the same answer
// at the same place in start order, so it counts as live too.
func (r busyRef) live() bool { return r.e.busy != nil && r.e.busy.started == r.started }

// oldestBusy returns the busy entry with the least (started, line), or
// nil. Every busy entry has a live reference in busyQ, and the queue is
// in start order, so the answer is the least line among the live
// references that share the front's start.
func (h *HomeCtrl) oldestBusy() *DirEntry {
	h.dropStale()
	if h.busyLen == 0 {
		return nil
	}
	mask := len(h.busyQ) - 1
	front := h.busyQ[h.busyHead]
	best := front.e
	for i := 1; i < h.busyLen; i++ {
		r := h.busyQ[(h.busyHead+i)&mask]
		if r.started != front.started {
			break
		}
		if r.live() && r.e.Line < best.Line {
			best = r.e
		}
	}
	return best
}

// dropStale removes the references at the front of busyQ that are no
// longer live.
func (h *HomeCtrl) dropStale() {
	mask := len(h.busyQ) - 1
	for h.busyLen > 0 && !h.busyQ[h.busyHead].live() {
		h.busyHead = (h.busyHead + 1) & mask
		h.busyLen--
	}
}

// pushBusy appends e, turning busy with a transaction started now, to
// busyQ, doubling the ring when it is full. It drops stale references
// first, so the ring holds only the transactions started since the
// oldest one still in flight.
func (h *HomeCtrl) pushBusy(e *DirEntry, now uint64) {
	h.dropStale()
	if h.busyLen == len(h.busyQ) {
		q := make([]busyRef, max(2*len(h.busyQ), 16))
		for i := range h.busyLen {
			q[i] = h.busyQ[(h.busyHead+i)&(len(h.busyQ)-1)]
		}
		h.busyQ, h.busyHead = q, 0
	}
	h.busyQ[(h.busyHead+h.busyLen)&(len(h.busyQ)-1)] = busyRef{e, now}
	h.busyLen++
}

// NoteWirelessFault records one failed wireless broadcast concerning a
// line this slice homes. After FaultDemoteAfter consecutive failures
// on a quiet W entry the directory gives up on the wireless medium for
// the line and demotes it to wired S (Table II W->S, fault-triggered):
// the sharers keep their copies, but updates go back to the
// invalidation protocol, which needs no wireless delivery to stay
// coherent.
func (h *HomeCtrl) NoteWirelessFault(now uint64, line addrspace.Line) {
	if h.cfg.Protocol != WiDir {
		return
	}
	e := h.Entry(line)
	if e == nil || e.State != DirWireless {
		return
	}
	e.faultFails++
	if e.Busy() || e.faultFails < FaultDemoteAfter {
		return
	}
	fails := e.faultFails
	e.faultFails = 0
	h.Stats.FaultDemotions++
	if h.cfg.Trace != nil {
		h.cfg.Trace.Emit(obs.Event{Cycle: now, Kind: obs.EvWFaultDemote,
			Node: int32(h.id), Other: obs.NoNode, Line: line,
			A: uint64(fails)})
	}
	h.startWToS(e)
}

// MemoryImage is the simulated off-chip memory contents, shared by all
// slices; access timing is modeled by the machine's memory controllers,
// while the data itself lives here.
type MemoryImage struct {
	words map[addrspace.Line]*[addrspace.WordsPerLine]uint64
}

// NewMemoryImage returns an empty (all-zero) memory.
func NewMemoryImage() *MemoryImage {
	return &MemoryImage{words: make(map[addrspace.Line]*[addrspace.WordsPerLine]uint64)}
}

// ReadLine returns the line contents (zeroes for untouched lines).
func (m *MemoryImage) ReadLine(l addrspace.Line) [addrspace.WordsPerLine]uint64 {
	if w := m.words[l]; w != nil {
		return *w
	}
	return [addrspace.WordsPerLine]uint64{}
}

// WriteLine stores the line contents.
func (m *MemoryImage) WriteLine(l addrspace.Line, words [addrspace.WordsPerLine]uint64) {
	w := m.words[l]
	if w == nil {
		w = new([addrspace.WordsPerLine]uint64)
		m.words[l] = w
	}
	*w = words
}

// Lines returns the touched lines in ascending order; Dump and any
// other walk over memory contents go through it so dumps compare
// byte-identical between runs of the same seed.
func (m *MemoryImage) Lines() []addrspace.Line {
	return sortedLines(m.words)
}

// ForEachLine visits the touched lines in ascending line order.
func (m *MemoryImage) ForEachLine(fn func(l addrspace.Line, words [addrspace.WordsPerLine]uint64)) {
	for _, l := range m.Lines() {
		fn(l, *m.words[l])
	}
}

// Dump renders the full memory contents, one touched line per row in
// ascending line order — a stable fingerprint for determinism tests.
func (m *MemoryImage) Dump() string {
	var b strings.Builder
	m.ForEachLine(func(l addrspace.Line, words [addrspace.WordsPerLine]uint64) {
		fmt.Fprintf(&b, "%#x:", l)
		for _, w := range words {
			fmt.Fprintf(&b, " %#x", w)
		}
		b.WriteByte('\n')
	})
	return b.String()
}

// HandleWired dispatches a wired message delivered to this home. It
// reports whether the home kept m (see Env); a kept message is freed
// with Env.FreeMsg by whichever path finishes with it.
func (h *HomeCtrl) HandleWired(now uint64, m *Msg) (kept bool) {
	switch m.Type {
	case MsgGetS, MsgGetX:
		// The request pays the local LLC bank latency before the
		// directory acts on it (plus any injected slice contention).
		delay := h.cfg.LLCLatency / 2
		if h.cfg.FaultDirDelay != nil {
			delay += h.cfg.FaultDirDelay()
		}
		h.env.AfterRunner(delay, h.later(m, true))
		return true
	case MsgPutS, MsgPutE, MsgPutM, MsgPutW:
		return h.processOrDefer(m)
	case MsgInvAck, MsgCopyBack, MsgXferAck, MsgRecallAck, MsgWirUpgrAck, MsgWirDwgrAck:
		h.processAck(m)
	case MsgMemData:
		h.processMemData(m)
	default:
		h.fail(m.Line, "home cannot handle %v from %d", m.Type, m.Src)
	}
	return false
}

// requestRunner hands a kept request back to the directory later:
// after the LLC bank latency on arrival (first), or one cycle later
// while a wireless transmission for its line is on the air. Runners
// are pooled, and each frees its request unless the directory kept it
// again.
type requestRunner struct {
	h     *HomeCtrl
	m     *Msg
	first bool
}

// Run implements engine.Runner.
func (r *requestRunner) Run(now uint64) {
	h, m, first := r.h, r.m, r.first
	r.m = nil
	h.reqFree.Put(r)
	var kept bool
	if first {
		kept = h.processRequest(now, m)
	} else {
		kept = h.reprocess(now, m)
	}
	if !kept {
		h.env.FreeMsg(m)
	}
}

// later takes a request runner from the free list.
func (h *HomeCtrl) later(m *Msg, first bool) *requestRunner {
	r := h.reqFree.Get()
	r.h, r.m, r.first = h, m, first
	return r
}

// newTxn starts a transaction record for entry e, reusing a finished
// one (and its ackIDs array) when the free list has one, and queues e
// for oldestBusy. t holds the fields to set; the caller makes the
// record e.busy.
func (h *HomeCtrl) newTxn(e *DirEntry, t txn) *txn {
	t.started = h.env.Now()
	h.pushBusy(e, t.started)
	p := h.txnFree.Get()
	t.ackIDs = p.ackIDs[:0]
	*p = t
	return p
}

// freeTxn recycles a transaction record its entry no longer points to.
func (h *HomeCtrl) freeTxn(t *txn) { h.txnFree.Put(t) }

func (h *HomeCtrl) touch(e *DirEntry) {
	h.lruTick++
	e.lru = h.lruTick
}

func (h *HomeCtrl) send(dst int, port PortKind, m Msg) {
	m.Src = h.id
	h.env.SendWired(h.id, dst, port, m)
}

func (h *HomeCtrl) nack(m *Msg) {
	if h.cfg.Trace != nil {
		h.cfg.Trace.Emit(obs.Event{Cycle: h.env.Now(), Kind: obs.EvNACK,
			Node: int32(h.id), Other: int32(m.Src), Line: m.Line, B: m.ReqID})
	}
	h.Stats.NACKs++
	h.send(m.Src, PortL1, Msg{Type: MsgNACK, Line: m.Line, ReqID: m.ReqID})
}

// processRequest handles GetS/GetX after the LLC tag latency. It
// reports whether the request was kept for later (see reprocess).
func (h *HomeCtrl) processRequest(now uint64, m *Msg) (kept bool) {
	if m.Type == MsgGetS {
		h.Stats.GetS++
	} else {
		h.Stats.GetX++
	}
	h.Stats.LLCAccesses++
	return h.reprocess(now, m)
}

// reprocess re-dispatches a request without recounting it (used when a
// request defers past an in-flight wireless transmission). It reports
// whether the request was kept: deferred again, to run one cycle on.
func (h *HomeCtrl) reprocess(now uint64, m *Msg) (kept bool) {
	e := h.Entry(m.Line)
	if e == nil {
		e = h.allocate(m)
		if e == nil {
			h.nack(m) // capacity eviction in progress; bounce
			return false
		}
	}
	h.touch(e)
	if e.Busy() {
		h.nack(m)
		return false
	}

	switch e.State {
	case DirInvalid:
		h.serveUncached(e, m)
	case DirShared:
		h.serveShared(e, m)
	case DirOwned:
		h.serveOwned(e, m)
	case DirWireless:
		return h.serveWireless(e, m)
	}
	return false
}

// allocate creates a fresh entry, evicting a victim when the slice is
// full. Returns nil when an eviction transaction had to start first.
func (h *HomeCtrl) allocate(m *Msg) *DirEntry {
	if h.entries.length() >= h.cfg.Entries {
		if !h.evictVictim() {
			return nil
		}
		if h.entries.length() >= h.cfg.Entries {
			return nil // victim eviction is asynchronous; caller bounces
		}
	}
	e := h.entryFree.Pop()
	if e == nil {
		if len(h.entrySlab) == cap(h.entrySlab) {
			h.entrySlab = make([]DirEntry, 0, entryChunk)
		}
		h.entrySlab = h.entrySlab[:len(h.entrySlab)+1]
		e = &h.entrySlab[len(h.entrySlab)-1]
	}
	*e = DirEntry{Line: m.Line, Sharers: e.Sharers[:0],
		staleWired: e.staleWired[:0], deferred: e.deferred[:0]}
	h.entries.put(m.Line, e)
	return e
}

// releaseEntry returns a dead entry to the free list. Callers must have
// removed it from the table first.
func (h *HomeCtrl) releaseEntry(e *DirEntry) {
	for i := range e.deferred {
		e.deferred[i] = nil
	}
	e.deferred = e.deferred[:0]
	if e.busy != nil {
		h.freeTxn(e.busy)
		e.busy = nil
	}
	h.entryFree.Put(e)
}

// evictVictim starts (or completes, for quiet entries) the eviction of
// the LRU non-busy entry. Returns false when nothing could be evicted.
//
// The proto:event below: the victim is a different line than the one
// the caller was narrowed on, so the walker re-enters here with a
// fresh state set under the synthetic Evict event.
//
//proto:event Evict
func (h *HomeCtrl) evictVictim() bool {
	var victim *DirEntry
	// Tie-break equal lru stamps by line address: with a plain `<` the
	// winner among equals would depend on iteration order, making
	// eviction timing a property of table layout rather than history.
	h.entries.forEach(func(_ addrspace.Line, e *DirEntry) bool {
		if e.Busy() {
			return true
		}
		if victim == nil || e.lru < victim.lru || (e.lru == victim.lru && e.Line < victim.Line) {
			victim = e
		}
		return true
	})
	if victim == nil {
		return false
	}
	h.Stats.DirEvictions++
	switch victim.State {
	case DirInvalid:
		h.writebackIfDirty(victim)
		h.entries.del(victim.Line)
		h.releaseEntry(victim)
		return true
	case DirShared:
		// Invalidate all sharers, then drop.
		t := h.newTxn(victim, txn{kind: txEvict})
		victim.busy = t
		t.acksLeft = h.sendInvalidations(victim, -1)
		if t.acksLeft == 0 {
			h.finishEvict(victim)
		}
		return true
	case DirOwned:
		t := h.newTxn(victim, txn{kind: txEvict, acksLeft: 1})
		victim.busy = t
		h.send(victim.Owner, PortL1, Msg{Type: MsgRecall, Line: victim.Line})
		return true
	case DirWireless:
		// Table II W->I: broadcast WirInv; write back if dirty.
		t := h.newTxn(victim, txn{kind: txEvict})
		t.evict = wEviction{h: h, e: victim}
		victim.busy = t
		h.Stats.WirInvs++
		if h.cfg.Trace != nil {
			h.cfg.Trace.Emit(obs.Event{Cycle: h.env.Now(), Kind: obs.EvWInv,
				Node: int32(h.id), Other: obs.NoNode, Line: victim.Line,
				A: uint64(victim.SharerCount)})
		}
		h.env.TransmitWireless(Msg{Type: MsgWirInv, Line: victim.Line, Src: h.id}, true, &t.evict)
		return true
	}
	return false
}

func (h *HomeCtrl) finishEvict(e *DirEntry) {
	h.writebackIfDirty(e)
	h.entries.del(e.Line)
	// Deferred puts for a dropped entry are acked leniently.
	for i, m := range e.deferred {
		h.ackPut(m)
		h.env.FreeMsg(m)
		e.deferred[i] = nil
	}
	e.deferred = e.deferred[:0]
	h.releaseEntry(e)
}

func (h *HomeCtrl) writebackIfDirty(e *DirEntry) {
	if !e.Dirty || !e.HasData {
		return
	}
	if h.Memory != nil {
		h.Memory.WriteLine(e.Line, e.Words)
	}
	h.send(h.env.MCOf(e.Line), PortMC, Msg{
		Type: MsgMemWrite, Line: e.Line, HasData: true, Words: e.Words,
	})
	e.Dirty = false
}

// serveUncached grants a line no cache holds. MESI grants Exclusive on
// a read with no other sharers.
func (h *HomeCtrl) serveUncached(e *DirEntry, m *Msg) {
	if !e.HasData {
		e.busy = h.newTxn(e, txn{kind: txFetchMem, requester: m.Src, reqType: m.Type, reqID: m.ReqID})
		h.send(h.env.MCOf(e.Line), PortMC, Msg{Type: MsgMemRead, Line: e.Line, Requester: h.id})
		return
	}
	h.grantFromLLC(e, m.Src, m.Type, m.ReqID)
}

func (h *HomeCtrl) grantFromLLC(e *DirEntry, requester int, reqType MsgType, reqID uint64) {
	if reqType == MsgGetS {
		e.State = DirOwned // MESI: clean-exclusive grant
		e.Owner = requester
		e.OwnerDirty = false
		h.send(requester, PortL1, Msg{Type: MsgDataE, Line: e.Line, ReqID: reqID, HasData: true, Words: e.Words})
	} else {
		e.State = DirOwned
		e.Owner = requester
		e.OwnerDirty = true
		h.send(requester, PortL1, Msg{Type: MsgDataM, Line: e.Line, ReqID: reqID, HasData: true, Words: e.Words})
	}
}

// serveShared handles requests against a read-shared line, including
// the WiDir S->W trigger and the Dir_3B overflow behaviour.
func (h *HomeCtrl) serveShared(e *DirEntry, m *Msg) {
	isSharer := e.sharerListed(m.Src)
	if m.Type == MsgGetS {
		newCount := e.sharerCountNow()
		if !isSharer {
			newCount++
		}
		if h.cfg.Protocol == WiDir && newCount > h.cfg.MaxWiredSharers && !isSharer {
			h.startSToW(e, m)
			return
		}
		h.addSharer(e, m.Src)
		h.send(m.Src, PortL1, Msg{Type: MsgDataS, Line: e.Line, ReqID: m.ReqID, HasData: true, Words: e.Words})
		return
	}

	// GetX.
	if h.cfg.Protocol == WiDir && m.IsSharer && !isSharer {
		// The upgrade's Shared copy is not in this entry's sharer set:
		// the request was issued against an epoch the line has since
		// left (a directory eviction, or a W->S round), so the claim
		// is provably stale — tracked-S plus per-source FIFO rule out
		// a live unlisted sharer. Discard with an explicit
		// notification: a still-live requester re-requests as a
		// non-sharer, one that resolved its store locally under a
		// BrWirUpgr ignores it. Serving it instead would count a core
		// into a fresh S->W upgrade that never joins the group.
		h.send(m.Src, PortL1, Msg{Type: MsgWDiscard, Line: e.Line, ReqID: m.ReqID})
		return
	}
	if h.cfg.Protocol == WiDir && !isSharer && e.sharerCountNow()+1 > h.cfg.MaxWiredSharers {
		h.startSToW(e, m)
		return
	}
	t := h.newTxn(e, txn{kind: txInvAll, requester: m.Src, reqID: m.ReqID})
	e.busy = t
	t.acksLeft = h.sendInvalidations(e, m.Src)
	if t.acksLeft == 0 {
		h.finishInvAll(e)
	}
}

// sendInvalidations sends wired Invs to every sharer except skip
// (skip=-1 invalidates everyone) and returns the expected ack count.
// With the Dir_3B broadcast bit set, the invalidation goes to every
// node in the machine — the overflow cost the paper motivates against.
func (h *HomeCtrl) sendInvalidations(e *DirEntry, skip int) int {
	n := 0
	if e.Broadcast {
		h.Stats.BroadcastInvs++
		for node := 0; node < h.env.Nodes(); node++ {
			if node == skip {
				continue
			}
			if h.cfg.Scheme == DirCV && e.CoarseVec&(1<<uint(node/h.cfg.CoarseRegion)) == 0 {
				continue // Dir_iCV_r: the node's region held no sharer
			}
			h.Stats.Invalidations++
			h.send(node, PortL1, Msg{Type: MsgInv, Line: e.Line})
			n++
		}
		return n
	}
	for _, s := range e.Sharers {
		if s == skip {
			continue
		}
		h.Stats.Invalidations++
		h.send(s, PortL1, Msg{Type: MsgInv, Line: e.Line})
		n++
	}
	return n
}

func (h *HomeCtrl) finishInvAll(e *DirEntry) {
	t := e.busy
	e.busy = nil
	e.State = DirOwned
	e.Owner = t.requester
	e.OwnerDirty = true
	e.Sharers = e.Sharers[:0] // keep the scratch array for the next sharer set
	e.Broadcast = false
	e.CoarseVec = 0
	e.SharerApprox = 0
	h.send(t.requester, PortL1, Msg{Type: MsgDataM, Line: e.Line, ReqID: t.reqID, HasData: true, Words: e.Words})
	h.freeTxn(t)
	h.drainDeferred(e)
}

// sharerListed reports whether the node is a tracked sharer. With the
// broadcast bit set, membership is unknown and reported false.
func (e *DirEntry) sharerListed(node int) bool {
	for _, s := range e.Sharers {
		if s == node {
			return true
		}
	}
	return false
}

func (e *DirEntry) sharerCountNow() int {
	if e.Broadcast {
		return e.SharerApprox
	}
	return len(e.Sharers)
}

// addSharer records a reader, overflowing into the broadcast bit when
// the pointers run out (Dir_3B, Baseline only — WiDir transitions to W
// before this can happen).
func (h *HomeCtrl) addSharer(e *DirEntry, node int) {
	if e.Broadcast {
		e.SharerApprox++
		if h.cfg.Scheme == DirCV {
			e.CoarseVec |= 1 << uint(node/h.cfg.CoarseRegion)
		}
		return
	}
	if e.sharerListed(node) {
		return
	}
	if len(e.Sharers) < h.cfg.MaxPointers {
		e.Sharers = append(e.Sharers, node)
		return
	}
	// Pointer overflow: collapse to the scheme's imprecise encoding.
	e.Broadcast = true
	e.SharerApprox = len(e.Sharers) + 1
	if h.cfg.Scheme == DirCV {
		e.CoarseVec = 1 << uint(node/h.cfg.CoarseRegion)
		for _, s := range e.Sharers {
			e.CoarseVec |= 1 << uint(s/h.cfg.CoarseRegion)
		}
	}
	e.Sharers = e.Sharers[:0]
}

func (h *HomeCtrl) removeSharer(e *DirEntry, node int) {
	if e.Broadcast {
		if e.SharerApprox > 0 {
			e.SharerApprox--
		}
		if e.SharerApprox == 0 {
			e.Broadcast = false
			e.CoarseVec = 0
			e.State = DirInvalid
		}
		return
	}
	for i, s := range e.Sharers {
		if s == node {
			e.Sharers = append(e.Sharers[:i], e.Sharers[i+1:]...)
			break
		}
	}
	if len(e.Sharers) == 0 {
		e.State = DirInvalid
	}
}

// serveOwned forwards the request to the current owner.
func (h *HomeCtrl) serveOwned(e *DirEntry, m *Msg) {
	if m.Src == e.Owner {
		// The owner re-requesting means its eviction notice is still in
		// flight ahead of this request; bounce until the put arrives.
		h.nack(m)
		return
	}
	if m.Type == MsgGetS {
		e.busy = h.newTxn(e, txn{kind: txFwdGetS, requester: m.Src, reqID: m.ReqID})
		h.send(e.Owner, PortL1, Msg{Type: MsgFwdGetS, Line: e.Line, Requester: m.Src, ReqID: m.ReqID})
		return
	}
	e.busy = h.newTxn(e, txn{kind: txFwdGetX, requester: m.Src, reqID: m.ReqID})
	h.send(e.Owner, PortL1, Msg{Type: MsgFwdGetX, Line: e.Line, Requester: m.Src, ReqID: m.ReqID})
}

// serveWireless handles wired requests against a W line (Table II W->W
// cases 1 and 2). It reports whether it kept the request.
func (h *HomeCtrl) serveWireless(e *DirEntry, m *Msg) (kept bool) {
	// An update for this line may be on the air right now; its merge is
	// imminent and the WirUpgr data snapshot must include it. The
	// directory's transceiver observes the channel, so defer the
	// request past the in-flight transmission.
	if h.env.WirelessActive(e.Line) {
		h.env.AfterRunner(1, h.later(m, false))
		return true
	}
	if m.Type == MsgGetX && m.IsSharer {
		// Table II W->W case 2: a stale upgrade from a cache that did
		// not yet know the directory moved to W; the BrWirUpgr already
		// informed it. Discard — with an explicit notification so a
		// requester that lost its copy before the broadcast (and so
		// could not resolve locally) re-requests as a non-sharer.
		h.send(m.Src, PortL1, Msg{Type: MsgWDiscard, Line: e.Line, ReqID: m.ReqID})
		return false
	}
	// Table II W->W case 1: add the sharer over the wired network while
	// jamming wireless transactions on the line.
	t := h.newTxn(e, txn{kind: txWAddSharer, requester: m.Src})
	e.busy = t
	h.env.Jam(e.Line, h.id)
	h.send(m.Src, PortL1, Msg{
		Type: MsgWirUpgr, Line: e.Line, ReqID: m.ReqID, NeedAck: true, HasData: true, Words: e.Words,
	})
	return false
}

// startSToW runs Table II's S->W transition: broadcast BrWirUpgr, jam
// the line, send the line to the requester over the wired NoC, and wait
// for the ToneAck to complete.
func (h *HomeCtrl) startSToW(e *DirEntry, m *Msg) {
	h.Stats.SToW++
	t := h.newTxn(e, txn{kind: txSToW, requester: m.Src})
	e.busy = t
	h.env.Jam(e.Line, h.id)
	t.upgrade = upgrade{h: h, e: e, t: t, newCount: e.sharerCountNow() + 1}
	h.env.TransmitWireless(Msg{Type: MsgBrWirUpgr, Line: e.Line, Src: h.id}, true, &t.upgrade)

	// Concurrently, the requester gets the line over the wired NoC; no
	// WirUpgrAck is needed — its tone drop completes the handshake.
	h.send(m.Src, PortL1, Msg{
		Type: MsgWirUpgr, Line: e.Line, ReqID: m.ReqID, NeedAck: false, HasData: true, Words: e.Words,
	})
}

// HandleWireless processes broadcasts observed by the home's own
// transceiver. The home merges WirUpd writes into the LLC copy so the
// slice always holds the current data for W lines; it ignores its own
// and other homes' broadcasts.
func (h *HomeCtrl) HandleWireless(now uint64, m *Msg) {
	if m.Type != MsgWirUpd {
		return
	}
	e := h.Entry(m.Line)
	if e == nil || h.env.HomeOf(m.Line) != h.id {
		return
	}
	if e.State != DirWireless {
		// A stray update can only appear if serialization broke.
		h.fail(m.Line, "WirUpd from %d in state %v", m.Src, e.State)
		return
	}
	e.Words[m.Word] = m.Words[m.Word]
	e.Dirty = true
	e.faultFails = 0 // the wireless medium delivered; reset demotion count
	// Fig. 5 metric: sharers updated by this write (the other caches
	// holding the line, i.e. SharerCount-1 excluding the writer).
	updated := e.SharerCount - 1
	if updated < 0 {
		updated = 0
	}
	h.Stats.SharersAtUpd.Observe(updated)
	h.Stats.UpdateSharerSum += uint64(updated)
}

// processOrDefer queues puts while the entry is busy (except the PutW
// cases a W->S downgrade must see immediately). It reports whether it
// kept m on the entry's deferred queue.
func (h *HomeCtrl) processOrDefer(m *Msg) (kept bool) {
	e := h.Entry(m.Line)
	if e == nil {
		h.ackPut(m)
		return false
	}
	if e.Busy() {
		if !h.consumeBusyPut(e, m) {
			e.deferred = append(e.deferred, m)
			return true
		}
		return false
	}
	h.processPut(e, m)
	return false
}

// consumeBusyPut handles the put notices a busy entry must see
// immediately: during a W->S downgrade, a PutW (concurrent decay or
// eviction) or a counted pre-W-epoch notice from a node that has not
// acked means one fewer WirDwgrAck will come. Uncounted stale notices
// (sender outside the staleWired snapshot) are acknowledged and
// swallowed without touching the ack arithmetic. Reports whether the
// message was consumed. (A PutS from a node that already acked is a
// genuine eviction of its fresh Shared copy and defers normally.)
func (h *HomeCtrl) consumeBusyPut(e *DirEntry, m *Msg) bool {
	if e.busy.kind != txWToS {
		return false
	}
	if m.Type != MsgPutW && m.Type != MsgPutS && m.Type != MsgPutE && m.Type != MsgPutM {
		return false
	}
	if slices.Contains(e.busy.ackIDs, m.Src) {
		return false
	}
	h.Stats.LLCAccesses++
	h.ackPut(m)
	if m.Type != MsgPutW && !e.takeStaleWired(m.Src) {
		// A wired-era notice from a node that was never part of the
		// wireless membership: swallow it without touching the ack
		// arithmetic, exactly as the stable-DW path would.
		return true
	}
	e.busy.acksLeft--
	h.maybeFinishWToS(e)
	return true
}

// processPut applies an eviction notice against the current state,
// leniently: stale notices (from states the line has since left) are
// acknowledged and ignored.
func (h *HomeCtrl) processPut(e *DirEntry, m *Msg) {
	h.Stats.LLCAccesses++
	defer h.ackPut(m)
	switch e.State {
	case DirInvalid:
		// Stale put; nothing to do.
	case DirShared:
		switch m.Type {
		case MsgPutS, MsgPutE, MsgPutM:
			// PutE/PutM here are not necessarily stale: the evicting
			// owner may have been downgraded to a listed sharer by a
			// forwarded request served from its victim buffer while the
			// eviction notice was in flight. Remove the pointer either
			// way (removeSharer is a no-op for unlisted nodes). The
			// data of a PutM is already at the home via the CopyBack
			// that performed the downgrade.
			h.removeSharer(e, m.Src)
		default:
			// PutW against DS is stale: the line left W before the
			// notice arrived.
		}
	case DirOwned:
		if m.Src != e.Owner {
			return // stale put from a former sharer
		}
		switch m.Type {
		case MsgPutE:
			e.State = DirInvalid
		case MsgPutM:
			e.State = DirInvalid
			e.Words = m.Words
			e.HasData = true
			e.Dirty = true
		default:
			// A PutS here is stale: sent when the line was S at the
			// node, before it re-acquired ownership; membership math
			// already handled. PutW against DO likewise.
		}
	case DirWireless:
		// Table II W->W case 4 / W->S: a wireless sharer left. A PutW
		// is always a genuine departure. A wired-era notice
		// (PutS/PutE/PutM) counts only if its sender was one of the
		// pointers collapsed into SharerCount at the upgrade; anything
		// else is a stale notice from a node deposed before the
		// wireless epoch began, and decrementing for it would
		// undercount the eventual W->S demotion.
		switch m.Type {
		case MsgPutW:
		case MsgPutS, MsgPutE, MsgPutM:
			if !e.takeStaleWired(m.Src) {
				return
			}
		default:
			return
		}
		if e.SharerCount == 0 {
			h.fail(e.Line, "put %v from %d would make the wireless sharer count negative", m.Type, m.Src)
			return
		}
		e.SharerCount--
		if e.SharerCount <= h.cfg.MaxWiredSharers {
			h.startWToS(e)
		}
	}
}

func (h *HomeCtrl) ackPut(m *Msg) {
	h.send(m.Src, PortL1, Msg{Type: MsgPutAck, Line: m.Line})
}

// startWToS runs Table II's W->S transition: broadcast WirDwgr and
// collect the remaining sharers' identities over the wired NoC. The
// line is jammed for the duration so no update can serialize between
// the downgrade decision and its commit.
func (h *HomeCtrl) startWToS(e *DirEntry) {
	h.Stats.WToS++
	t := h.newTxn(e, txn{kind: txWToS, acksLeft: e.SharerCount})
	e.busy = t
	h.env.Jam(e.Line, h.id)
	t.cancelTx = h.env.TransmitWireless(Msg{Type: MsgWirDwgr, Line: e.Line, Src: h.id}, true, nil)
	if t.acksLeft == 0 {
		h.maybeFinishWToS(e)
	}
}

func (h *HomeCtrl) maybeFinishWToS(e *DirEntry) {
	t := e.busy
	if len(t.ackIDs) < t.acksLeft {
		return
	}
	// If every counted sharer left via eviction notices before the
	// WirDwgr even transmitted, withdraw the broadcast: letting it air
	// later would downgrade (and collect acks from) a future wireless
	// generation of the line.
	if t.cancelTx != 0 {
		h.env.CancelWireless(t.cancelTx)
	}
	if h.cfg.Trace != nil {
		h.cfg.Trace.Emit(obs.Event{Cycle: h.env.Now(), Kind: obs.EvWDowngrade,
			Node: int32(h.id), Other: obs.NoNode, Line: e.Line,
			A: uint64(len(t.ackIDs))})
	}
	e.busy = nil
	e.State = DirShared
	e.Sharers = append(e.Sharers[:0], t.ackIDs...)
	h.freeTxn(t)
	e.SharerCount = 0
	e.staleWired = e.staleWired[:0]
	e.staleWiredAll = false
	if len(e.Sharers) == 0 {
		e.State = DirInvalid
	}
	// Paper: write the line to memory if the LLC copy is dirty.
	h.writebackIfDirty(e)
	h.env.Unjam(e.Line, h.id)
	h.drainDeferred(e)
}

// processAck advances the busy transaction expecting it.
func (h *HomeCtrl) processAck(m *Msg) {
	e := h.Entry(m.Line)
	if e == nil || !e.Busy() {
		h.fail(m.Line, "ack %v from %d with no transaction", m.Type, m.Src)
		return
	}
	t := e.busy
	switch m.Type {
	case MsgInvAck:
		if t.kind != txInvAll && t.kind != txEvict {
			h.fail(m.Line, "unexpected InvAck from %d during %v", m.Src, t.kind)
			return
		}
		t.acksLeft--
		if t.acksLeft == 0 {
			if t.kind == txEvict {
				h.finishEvict(e)
			} else {
				h.finishInvAll(e)
			}
		}
	case MsgCopyBack:
		if t.kind != txFwdGetS {
			h.fail(m.Line, "unexpected CopyBack from %d during %v", m.Src, t.kind)
			return
		}
		e.busy = nil
		e.Words = m.Words
		e.HasData = true
		if m.NeedAck { // owner's copy was dirty
			e.Dirty = true
		}
		oldOwner := e.Owner
		e.State = DirShared
		e.Sharers = append(e.Sharers[:0], oldOwner, t.requester)
		e.Owner = 0
		e.OwnerDirty = false
		h.freeTxn(t)
		h.drainDeferred(e)
	case MsgXferAck:
		if t.kind != txFwdGetX {
			h.fail(m.Line, "unexpected XferAck from %d during %v", m.Src, t.kind)
			return
		}
		// e.State stayed DirOwned throughout the transfer; clearing
		// busy lands back on it with only the owner changed.
		//proto:transition dir busy:fwd-getx XferAck -> DO
		e.busy = nil
		e.Owner = t.requester
		e.OwnerDirty = true
		h.freeTxn(t)
		h.drainDeferred(e)
	case MsgRecallAck:
		if t.kind != txEvict {
			h.fail(m.Line, "unexpected RecallAck from %d during %v", m.Src, t.kind)
			return
		}
		if m.HasData {
			e.Words = m.Words
			e.HasData = true
			e.Dirty = true
		}
		h.finishEvict(e)
	case MsgWirUpgrAck:
		if t.kind != txWAddSharer {
			h.fail(m.Line, "unexpected WirUpgrAck from %d during %v", m.Src, t.kind)
			return
		}
		// e.State stayed DirWireless; the new sharer joined the
		// broadcast group and the entry returns to stable DW.
		//proto:transition dir busy:w-add-sharer WirUpgrAck -> DW
		e.busy = nil
		e.SharerCount++
		h.env.Unjam(e.Line, h.id)
		h.freeTxn(t)
		h.drainDeferred(e)
	case MsgWirDwgrAck:
		if t.kind != txWToS {
			h.fail(m.Line, "unexpected WirDwgrAck from %d during %v", m.Src, t.kind)
			return
		}
		t.ackIDs = append(t.ackIDs, m.Src)
		h.maybeFinishWToS(e)
	default:
		h.fail(m.Line, "processAck dispatched a non-ack %v from %d", m.Type, m.Src)
	}
}

// processMemData completes a memory fetch and grants the line.
func (h *HomeCtrl) processMemData(m *Msg) {
	e := h.Entry(m.Line)
	if e == nil || !e.Busy() || e.busy.kind != txFetchMem {
		h.fail(m.Line, "MemData without a fetch transaction")
		return
	}
	t := e.busy
	e.busy = nil
	e.Words = m.Words
	e.HasData = true
	e.Dirty = false
	h.grantFromLLC(e, t.requester, t.reqType, t.reqID)
	h.freeTxn(t)
	h.drainDeferred(e)
}

// drainDeferred replays puts that arrived during the transaction,
// freeing each one it finishes with. Processing a put can itself start
// a new transaction (e.g. a PutW that triggers the W->S downgrade); the
// remaining deferred puts are then fed through the busy-aware path, so
// a stale eviction notice the new transaction is waiting out is
// consumed rather than re-deferred.
//
// The proto:stop below: the drained puts replay under their own
// (deferred) events; attributing their effects to the ack that
// triggered the drain would mislabel the rows.
//
//proto:stop
func (h *HomeCtrl) drainDeferred(e *DirEntry) {
	pending := e.deferred
	e.deferred = nil // a put started below finds an empty queue
	for i, m := range pending {
		if !e.Busy() {
			h.processPut(e, m)
		} else if !h.consumeBusyPut(e, m) {
			// Keep m and everything after it deferred, in order, in the
			// same array.
			e.deferred = append(pending[:0], pending[i:]...)
			return
		}
		h.env.FreeMsg(m)
		pending[i] = nil
	}
	e.deferred = pending[:0]
}
