package coherence

import (
	"fmt"
	"sort"

	"repro/internal/addrspace"
	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/stats"
)

// RMWKind selects the atomic operation of a read-modify-write request.
type RMWKind uint8

// The atomic operations the workloads use (locks, barriers, counters).
const (
	RMWTestAndSet  RMWKind = iota // old = *p; *p = 1
	RMWExchange                   // old = *p; *p = operand
	RMWFetchAdd                   // old = *p; *p = old + operand
	RMWCompareSwap                // old = *p; if old == expected { *p = operand }
)

// Apply computes the new value for the operation.
func (k RMWKind) Apply(old, operand, expected uint64) uint64 {
	switch k {
	case RMWTestAndSet:
		return 1
	case RMWExchange:
		return operand
	case RMWFetchAdd:
		return old + operand
	case RMWCompareSwap:
		if old == expected {
			return operand
		}
		return old
	}
	//lint:deterministic unreachable terminator of an exhaustive RMWKind switch (switchcases-enforced); not a protocol state
	panic("coherence: unknown RMW kind")
}

// MemRequest is one memory operation issued by a core to its L1. Its
// one-byte fields sit together so that it packs into 88 bytes
// (TestMemRequestSize): every core holds one per load-queue entry.
type MemRequest struct {
	IsWrite bool
	IsRMW   bool
	RMW     RMWKind
	// Tag is the issuer's own: the L1 never reads it. It lets one Done
	// shared by many requests tell them apart.
	Tag      int32
	Addr     addrspace.Addr
	Value    uint64 // store value / RMW operand
	Expected uint64 // RMWCompareSwap comparand
	// Done fires when the operation completes, with the request itself.
	// Loads receive the value read; RMWs receive the old value; stores
	// receive the stored value.
	Done func(r *MemRequest, now uint64, value uint64)

	// obsSpan is the request's open observability span id (0 = none).
	// A request keeps one span across NACK retries, wireless aborts and
	// wired fallbacks, so a span's latency is the core's full wait.
	// obsClass records the protocol path the span was opened under.
	obsSpan uint64

	// missStart records the cycle of the first L1 miss this request
	// took (missed) and moreMisses those of later ones (a requeued
	// request can miss more than once); completion observes one
	// MissLatency sample per miss and clears them. Kept as fields rather
	// than a Done-wrapping closure so request objects can be pooled and
	// reused without chaining wrappers across lifetimes; the common
	// single miss needs no slice.
	missStart  uint64
	moreMisses []uint64

	obsClass obs.Class
	missed   bool
}

type pendingKind uint8

const (
	pendLoad pendingKind = iota
	pendStore
	pendRMW
)

// pendingReq tracks the single outstanding wired transaction an L1 may
// have per line, plus accesses that arrived while it was in flight.
type pendingReq struct {
	line        addrspace.Line
	kind        pendingKind
	req         *MemRequest
	reqID       uint64 // id of the outstanding (latest) request message
	isSharer    bool   // we held the line in S when the request was sent
	toneHeld    bool   // BrWirUpgr arrived while this was pending (ToneAck)
	invalidated bool   // an Inv arrived while the fill was in flight
	waiters     []*MemRequest
	retries     int
	started     uint64 // cycle the transaction began (age watchdog)

	// gen is the entry's generation stamp. pendingReq objects are
	// pooled; reuse bumps the stamp, and the NACK retry timer checks it
	// so a stale timer cannot act on a recycled entry that happens to
	// sit at the same address (and even the same line) again.
	gen uint64
}

// wirelessWrite tracks a store or RMW waiting for the wireless data
// channel (§IV-C: the write sits in the write buffer until the
// transmission is guaranteed). It is the transmission's TxCallback.
// Records are pooled: one is released once the channel has reported the
// outcome or a CancelWireless withdrew the transmission, since the
// channel calls it no more after either.
type wirelessWrite struct {
	l      *L1Ctrl
	line   addrspace.Line
	word   int
	req    *MemRequest
	oldVal uint64 // RMW: value read at issue; aborted if line changes
	value  uint64 // the value the broadcast writes
	tx     uint64 // the transmission's channel handle
}

// TxDone implements TxCallback.
func (ww *wirelessWrite) TxDone(now uint64) { ww.l.wirelessTxDone(ww) }

// TxAborted implements TxCallback.
func (ww *wirelessWrite) TxAborted(now uint64, jammed bool) { ww.l.wirelessTxAborted(ww, jammed) }

// MissLatencyBins are the histogram edges (cycles) for the per-miss
// completion-latency distribution: L1-adjacent, LLC-local, remote
// 2-hop, remote 3-hop/contended, and memory-bound misses.
//
//lint:deterministic written only at init/config time, read-only during ticks
var MissLatencyBins = []int{0, 20, 40, 80, 160, 320}

// L1Stats aggregates the measurements the evaluation reports per core.
type L1Stats struct {
	LoadHits           stats.Counter
	LoadMisses         stats.Counter
	StoreHits          stats.Counter
	StoreMisses        stats.Counter
	WirelessWrites     stats.Counter // writes completed via WirUpd
	WirelessReads      stats.Counter // loads that hit a W line
	UpdatesReceived    stats.Counter // WirUpd merges from remote writers
	SelfInvalidations  stats.Counter // UpdateCount decay (W -> I + PutW)
	Evictions          stats.Counter
	NACKs              stats.Counter
	RMWRetries         stats.Counter // wireless RMW aborts (§IV-C)
	WirelessTxFailures stats.Counter // wireless sends abandoned after fault retries
	L1Accesses         stats.Counter // energy accounting
	// MissLatency is the distribution of load/RMW miss completion
	// latencies (Access -> Done), in cycles.
	MissLatency *stats.Histogram
}

// L1Config parameterizes a private cache controller.
type L1Config struct {
	Cache          cache.Config
	Protocol       Protocol
	HitLatency     uint64   // round-trip cycles (Table III: 2)
	RetryDelay     uint64   // NACK retry backoff base
	UpdateCountMax int      // WiDir decay threshold (2-bit counter)
	Trace          obs.Sink // structured event sink (nil = off)
}

// L1Ctrl is the private cache controller of one node. It serves the
// core's loads, stores and RMWs, participates in the wired MESI
// protocol, and implements the private-cache side of WiDir (Table I).
type L1Ctrl struct {
	id   int
	cfg  L1Config
	env  Env
	data *cache.Cache

	pending lineTable[*pendingReq]
	wwrites lineTable[*wirelessWrite]
	victims lineTable[victimEntry]
	wwFails lineTable[int] // consecutive fault-aborted sends per line
	// held maps a line whose fill is parked behind a fully pinned set
	// to that park, which queues every later wired message for the
	// line (see fillPark).
	held lineTable[*fillPark]

	// compFree recycles completion events (see scheduleDone), pendFree
	// pending-transaction entries (see newPending), and the rest the
	// wireless-write records and the runners of this file.
	compFree pool.Free[completion]
	pendFree pool.Free[pendingReq]
	wwFree   pool.Free[wirelessWrite]
	accFree  pool.Free[accessRunner]
	nackFree pool.Free[nackRetry]
	parkFree pool.Free[fillPark]

	// Checker hooks (nil outside tests): see machine.Checker.
	OnSerializedWrite func(now uint64, a addrspace.Addr, v uint64)
	OnObservedRead    func(now uint64, core int, a addrspace.Addr, v uint64)

	Stats L1Stats

	retrySeed uint64
	reqSeq    uint64
	spanSeq   uint64 // observability span ids (separate from reqSeq so
	// enabling tracing cannot perturb message ReqIDs)
}

type victimEntry struct {
	words [addrspace.WordsPerLine]uint64
	state cache.State
	dirty bool
}

// NewL1 builds the controller for node id. It takes cfg as given:
// the Table III defaults live in machine.Config, which passes every field.
func NewL1(id int, cfg L1Config, env Env) *L1Ctrl {
	l := &L1Ctrl{
		id:        id,
		cfg:       cfg,
		env:       env,
		data:      cache.New(cfg.Cache),
		retrySeed: uint64(id)*2654435761 + 1,
	}
	l.Stats.MissLatency = stats.NewHistogram(MissLatencyBins...)
	return l
}

// Cache exposes the underlying array for invariant checking.
func (l *L1Ctrl) Cache() *cache.Cache { return l.data }

// VictimHolds reports whether the line sits in the victim buffer (an
// eviction notice is in flight); used by the invariant checker, since a
// forwarded request can still be served from there.
func (l *L1Ctrl) VictimHolds(line addrspace.Line) bool {
	_, ok := l.victims.get(line)
	return ok
}

// PendingLine reports whether a wired transaction is outstanding for
// the line (a grant may be in flight); used by the invariant checker.
func (l *L1Ctrl) PendingLine(line addrspace.Line) bool {
	_, ok := l.pending.get(line)
	return ok
}

// ID returns the node id.
func (l *L1Ctrl) ID() int { return l.id }

// HasPending reports whether any transaction is outstanding; the
// machine uses it for drain/quiesce detection.
func (l *L1Ctrl) HasPending() bool {
	return l.pending.length() > 0 || l.wwrites.length() > 0
}

// Describe renders the outstanding transactions for diagnostics, in
// ascending line order so watchdog dumps are identical across runs.
func (l *L1Ctrl) Describe() string {
	s := ""
	for _, line := range l.pending.sortedKeys() {
		p, _ := l.pending.get(line)
		s += fmt.Sprintf("pending line=%#x kind=%d retries=%d tone=%v; ", line, p.kind, p.retries, p.toneHeld)
	}
	for _, line := range l.wwrites.sortedKeys() {
		s += fmt.Sprintf("wwrite line=%#x; ", line)
	}
	return s
}

// fail reports a protocol violation with this controller's state dump
// and returns; the machine latches the error and ends the run.
func (l *L1Ctrl) fail(line addrspace.Line, format string, args ...any) {
	dump := fmt.Sprintf("line %#x: ", line)
	if ln := l.data.Lookup(line); ln != nil {
		dump += fmt.Sprintf("state=%v dirty=%v pinned=%v updCount=%d", ln.State, ln.Dirty, ln.NonEvict, ln.UpdateCount)
	} else {
		dump += "not resident"
	}
	if _, ok := l.victims.get(line); ok {
		dump += " victim-buffered"
	}
	if out := l.Describe(); out != "" {
		dump += " | outstanding: " + out
	}
	l.env.ReportProtocolError(&ProtocolError{
		Cycle: l.env.Now(), Node: l.id, Ctrl: "l1", Line: line,
		Reason: fmt.Sprintf(format, args...), Dump: dump,
	})
}

// OldestPending returns the oldest outstanding wired transaction of
// this L1 for the age watchdog and Diagnose, or ok=false when quiet.
// Selection is min-by (started, line), which no map order can perturb.
func (l *L1Ctrl) OldestPending() (TxnInfo, bool) {
	best := l.oldestPending()
	if best == nil {
		return TxnInfo{}, false
	}
	kind := "shim"
	if best.req != nil {
		switch best.kind {
		case pendLoad:
			kind = "load"
		case pendStore:
			kind = "store"
		case pendRMW:
			kind = "rmw"
		}
	}
	state := "pending"
	if ln := l.data.Lookup(best.line); ln != nil {
		state = ln.State.String()
	}
	return TxnInfo{
		Node: l.id, Ctrl: "l1", Line: best.line,
		State: state, Kind: kind, Started: best.started,
		Waiting: []int{l.env.HomeOf(best.line)},
	}, true
}

// OldestStart returns the start cycle of this L1's oldest outstanding
// transaction without building its TxnInfo (the age watchdog's
// allocation-free pre-check), or ok=false when quiet.
func (l *L1Ctrl) OldestStart() (uint64, bool) {
	if p := l.oldestPending(); p != nil {
		return p.started, true
	}
	return 0, false
}

// oldestPending returns the entry with the least (started, line), or
// nil; forEach order cannot perturb the winner.
func (l *L1Ctrl) oldestPending() *pendingReq {
	var best *pendingReq
	l.pending.forEach(func(_ addrspace.Line, p *pendingReq) bool {
		if best == nil || p.started < best.started ||
			(p.started == best.started && p.line < best.line) {
			best = p
		}
		return true
	})
	return best
}

// sortedLines returns the map's line keys in ascending order.
func sortedLines[V any](m map[addrspace.Line]V) []addrspace.Line {
	lines := make([]addrspace.Line, 0, len(m))
	//lint:deterministic key collection feeds the sort below
	for line := range m {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	return lines
}

// Access is the core's entry point for one memory operation.
//
// The core-side columns of the protocol table (Table I/II) are
// declared here rather than extracted: the dispatch below threads
// through completion queues and retry shims that the static model
// walker does not follow (proto:stop), so each core event's
// state-effect is recorded as an explicit annotation.
//
//proto:stop
//proto:transition l1 I CoreLoad -> I
//proto:transition l1 S CoreLoad -> S
//proto:transition l1 E CoreLoad -> E
//proto:transition l1 M CoreLoad -> M
//proto:transition l1 W CoreLoad -> W
//proto:transition l1 I CoreStore -> I
//proto:transition l1 S CoreStore -> S
//proto:transition l1 E CoreStore -> M
//proto:transition l1 M CoreStore -> M
//proto:transition l1 W CoreStore -> W
//proto:transition l1 I CoreRMW -> I
//proto:transition l1 S CoreRMW -> S
//proto:transition l1 E CoreRMW -> M
//proto:transition l1 M CoreRMW -> M
//proto:transition l1 W CoreRMW -> W
func (l *L1Ctrl) Access(r *MemRequest) {
	line := addrspace.LineOf(r.Addr)
	l.Stats.L1Accesses.Inc()

	// A line with an in-flight transaction queues further accesses.
	if p, ok := l.pending.get(line); ok {
		p.waiters = append(p.waiters, r)
		return
	}
	if _, ok := l.wwrites.get(line); ok {
		// A wireless write is draining for this line; the line is
		// usually still resident in W and readable. Writes (and reads
		// of a line that was evicted under an in-flight transmission)
		// queue behind it via a shim entry.
		if ln := l.data.Touch(line); ln != nil && !r.IsWrite && !r.IsRMW {
			l.serveHit(ln, r)
			return
		}
		p := l.newPending(line, pendStore, nil, false)
		p.waiters = append(p.waiters, r)
		l.pending.put(line, p)
		return
	}

	ln := l.data.Touch(line)
	switch {
	case ln == nil:
		l.miss(line, r, false)
	case !r.IsWrite && !r.IsRMW: // load hit in any valid state
		l.serveHit(ln, r)
	case ln.State == cache.Modified || ln.State == cache.Exclusive:
		l.serveHit(ln, r)
	case ln.State == cache.Wireless:
		l.wirelessStore(ln, r)
	case ln.State == cache.Shared:
		l.miss(line, r, true) // upgrade
	default:
		l.fail(line, "access dispatch reached unreachable state %v", ln.State)
	}
}

// serveHit completes a request that hits in the local cache.
func (l *L1Ctrl) serveHit(ln *cache.Line, r *MemRequest) {
	w := addrspace.WordOf(r.Addr)
	switch {
	case !r.IsWrite && !r.IsRMW:
		l.Stats.LoadHits.Inc()
		if ln.State == cache.Wireless {
			l.Stats.WirelessReads.Inc()
			ln.UpdateCount = 0 // Table I W->W: core reads
		}
		v := ln.Words[w]
		l.observeRead(r.Addr, v)
		l.complete(r, v)
	case r.IsRMW:
		if ln.State == cache.Wireless {
			l.wirelessStore(ln, r)
			return
		}
		// Owner: atomic by ownership.
		if ln.State == cache.Exclusive {
			ln.State = cache.Modified
		}
		old := ln.Words[w]
		ln.Words[w] = r.RMW.Apply(old, r.Value, r.Expected)
		ln.Dirty = true
		l.Stats.StoreHits.Inc()
		l.serializeWrite(r.Addr, ln.Words[w])
		l.observeRead(r.Addr, old)
		l.complete(r, old)
	default: // plain store on E/M
		if ln.State == cache.Exclusive {
			ln.State = cache.Modified
		}
		ln.Words[w] = r.Value
		ln.Dirty = true
		l.Stats.StoreHits.Inc()
		l.serializeWrite(r.Addr, r.Value)
		l.complete(r, r.Value)
	}
}

// completion is the pooled event that fires a request's Done; the
// steady-state hit/fill path schedules millions of these, so they are
// recycled through a per-controller free list instead of allocating a
// fresh closure each time.
type completion struct {
	l *L1Ctrl
	r *MemRequest
	v uint64
}

// Run implements engine.Runner.
func (cp *completion) Run(now uint64) {
	l, r, v := cp.l, cp.r, cp.v
	cp.r = nil
	l.compFree.Put(cp)
	l.finish(r, now, v)
}

func (l *L1Ctrl) scheduleDone(delay uint64, r *MemRequest, v uint64) {
	cp := l.compFree.Get()
	cp.l, cp.r, cp.v = l, r, v
	l.env.AfterRunner(delay, cp)
}

// complete schedules the request's Done after the L1 hit latency.
func (l *L1Ctrl) complete(r *MemRequest, v uint64) {
	if r == nil || r.Done == nil {
		return
	}
	l.scheduleDone(l.cfg.HitLatency, r, v)
}

// completeNow fires Done without additional latency (the transaction
// already paid its way through the network).
func (l *L1Ctrl) completeNow(r *MemRequest, v uint64) {
	if r == nil || r.Done == nil {
		return
	}
	l.scheduleDone(0, r, v)
}

// finish is the single completion point: it closes the observability
// span, records miss latency for every miss the request took, and
// fires Done. Misses are observed most-recent-first, matching the
// nesting order of the Done-wrapping closures they replace.
func (l *L1Ctrl) finish(r *MemRequest, now uint64, v uint64) {
	l.endSpan(r, now)
	for i := len(r.moreMisses) - 1; i >= 0; i-- {
		l.Stats.MissLatency.Observe(int(now - r.moreMisses[i]))
	}
	if r.missed {
		l.Stats.MissLatency.Observe(int(now - r.missStart))
	}
	r.moreMisses, r.missed = r.moreMisses[:0], false
	r.Done(r, now, v)
}

// miss sends the wired request to the home directory.
func (l *L1Ctrl) miss(line addrspace.Line, r *MemRequest, isSharer bool) {
	kind := pendLoad
	t := MsgGetS
	if r.IsRMW {
		kind, t = pendRMW, MsgGetX
	} else if r.IsWrite {
		kind, t = pendStore, MsgGetX
	}
	if kind == pendLoad {
		l.Stats.LoadMisses.Inc()
	} else {
		l.Stats.StoreMisses.Inc()
	}
	// Record the miss completion latency (Access to Done).
	if r.Done != nil {
		if !r.missed {
			r.missStart, r.missed = l.env.Now(), true
		} else {
			r.moreMisses = append(r.moreMisses, l.env.Now())
		}
	}
	switch kind {
	case pendLoad:
		l.beginSpan(r, line, obs.ClassWiredLoad)
	case pendStore:
		l.beginSpan(r, line, obs.ClassWiredStore)
	case pendRMW:
		l.beginSpan(r, line, obs.ClassWiredRMW)
	}
	p := l.newPending(line, kind, r, isSharer)
	l.pending.put(line, p)
	if isSharer {
		// Pin the resident Shared copy for the duration of the upgrade:
		// evicting it would send a PutS that trails the in-flight
		// request and reaches the home one membership epoch late, where
		// it would remove a live pointer (the MSHR holds the line).
		if ln := l.data.Lookup(line); ln != nil {
			ln.NonEvict = true
		}
	}
	l.sendRequest(p, t)
}

// newPending builds a pending-transaction entry, recycling a released
// one when available; reuse bumps the generation stamp and keeps the
// waiters scratch array.
func (l *L1Ctrl) newPending(line addrspace.Line, kind pendingKind, r *MemRequest, isSharer bool) *pendingReq {
	p := l.pendFree.Get()
	*p = pendingReq{line: line, kind: kind, req: r, isSharer: isSharer,
		started: l.env.Now(), gen: p.gen + 1, waiters: p.waiters[:0]}
	return p
}

// releasePending returns a dissolved entry to the free list. Callers
// must have removed it from the pending table AND be done with its
// waiters slice (the backing array is reused; requeue copies it).
func (l *L1Ctrl) releasePending(p *pendingReq) {
	for i := range p.waiters {
		p.waiters[i] = nil // drop request references for the GC
	}
	p.waiters = p.waiters[:0]
	p.req = nil
	l.pendFree.Put(p)
}

func (l *L1Ctrl) sendRequest(p *pendingReq, t MsgType) {
	l.reqSeq++
	p.reqID = l.reqSeq
	if l.cfg.Trace != nil {
		var sp uint64
		if p.req != nil {
			sp = p.req.obsSpan
		}
		l.cfg.Trace.Emit(obs.Event{Cycle: l.env.Now(), Kind: obs.EvL1Miss,
			Node: int32(l.id), Other: int32(l.env.HomeOf(p.line)),
			Line: p.line, A: sp, B: p.reqID})
	}
	l.env.SendWired(l.id, l.env.HomeOf(p.line), PortHome, Msg{
		Type: t, Line: p.line, Src: l.id, Requester: l.id, ReqID: p.reqID,
		IsSharer: p.isSharer,
	})
}

// beginSpan opens an observability span for the request unless it
// already carries one (NACK retries, wireless aborts and wired
// fallbacks continue the original span, so a span's latency is the
// core's full wait). The matching EvTxnEnd is emitted by endSpan from
// the completion path, which fires exactly once at final completion —
// the span state rides in the request itself, so tracing adds no
// closures and no allocations.
func (l *L1Ctrl) beginSpan(r *MemRequest, line addrspace.Line, cl obs.Class) {
	if l.cfg.Trace == nil || r == nil || r.obsSpan != 0 {
		return
	}
	l.spanSeq++
	r.obsSpan = l.spanSeq
	r.obsClass = cl
	l.cfg.Trace.Emit(obs.Event{Cycle: l.env.Now(), Kind: obs.EvTxnBegin,
		Node: int32(l.id), Other: obs.NoNode, Line: line, A: r.obsSpan, B: uint64(cl)})
}

// endSpan closes the request's open span, if any, at completion time.
func (l *L1Ctrl) endSpan(r *MemRequest, now uint64) {
	if l.cfg.Trace == nil || r.obsSpan == 0 {
		return
	}
	l.cfg.Trace.Emit(obs.Event{Cycle: now, Kind: obs.EvTxnEnd,
		Node: int32(l.id), Other: obs.NoNode, Line: addrspace.LineOf(r.Addr),
		A: r.obsSpan, B: uint64(r.obsClass)})
	r.obsSpan = 0
}

// wirelessStore performs a store or RMW on a line in W state: the
// update is broadcast on the wireless data channel, and local state
// changes only at the serialization point (§IV-C).
//
//proto:stop
func (l *L1Ctrl) wirelessStore(ln *cache.Line, r *MemRequest) {
	line := ln.Addr
	w := addrspace.WordOf(r.Addr)
	if r.IsRMW && r.RMW == RMWCompareSwap && ln.Words[w] != r.Expected {
		// A failed compare-and-swap performs no store: it is just an
		// atomic read of the W line and completes locally without
		// consuming wireless bandwidth.
		old := ln.Words[w]
		ln.UpdateCount = 0
		l.observeRead(r.Addr, old)
		l.complete(r, old)
		return
	}
	if r.IsRMW {
		l.beginSpan(r, line, obs.ClassWirelessRMW)
	} else {
		l.beginSpan(r, line, obs.ClassWirelessStore)
	}
	ww := l.wwFree.Get()
	ww.l, ww.line, ww.word, ww.req, ww.oldVal = l, line, w, r, 0
	ww.value = r.Value
	if r.IsRMW {
		ww.oldVal = ln.Words[w]
		ln.NonEvict = true // pin between read and write (§IV-C)
		ww.value = r.RMW.Apply(ww.oldVal, r.Value, r.Expected)
	}
	l.wwrites.put(line, ww)
	upd := Msg{Type: MsgWirUpd, Line: line, Src: l.id, Word: uint8(w)}
	upd.Words[w] = ww.value
	ww.tx = l.env.TransmitWireless(upd, false, ww)
}

// freeWrite recycles a wireless-write record the channel no longer
// references.
func (l *L1Ctrl) freeWrite(ww *wirelessWrite) {
	ww.req = nil
	l.wwFree.Put(ww)
}

// wirelessTxDone runs at the serialization point of this node's WirUpd.
// The write is globally ordered here: all sharers and the home merge the
// value when the broadcast delivers, so the store completes even if our
// own copy of the line was evicted while the transmission was queued.
//
//proto:stop
func (l *L1Ctrl) wirelessTxDone(ww *wirelessWrite) {
	line := ww.line
	defer l.freeWrite(ww)
	l.wwrites.del(line)
	l.wwFails.del(line) // the medium delivered; reset the backoff
	ln := l.data.Lookup(line)
	if ww.req.IsRMW && (ln == nil || ln.State != cache.Wireless) {
		// RMW lines are pinned (NonEvict) and every invalidating path
		// cancels the queued transmission first.
		l.fail(line, "wireless RMW serialized without its line")
		return
	}
	if ln != nil && ln.State == cache.Wireless {
		ln.NonEvict = false
		ln.Words[ww.word] = ww.value
		ln.UpdateCount = 0
	}
	l.Stats.WirelessWrites.Inc()
	if l.cfg.Trace != nil {
		l.cfg.Trace.Emit(obs.Event{Cycle: l.env.Now(), Kind: obs.EvWirUpd,
			Node: int32(l.id), Other: obs.NoNode, Line: line,
			A: ww.req.obsSpan, B: uint64(ww.word)})
	}
	l.serializeWrite(line.WordAddr(ww.word), ww.value)
	if ww.req.IsRMW {
		l.observeRead(line.WordAddr(ww.word), ww.oldVal)
		l.completeNow(ww.req, ww.oldVal)
	} else {
		l.completeNow(ww.req, ww.value)
	}
	l.drainWaitersFor(line)
}

// wirelessTxAborted runs when the transmission could not deliver:
// jammed by a directory protecting the line, or (jammed=false)
// abandoned after the channel's bounded fault retries. Either way the
// write stays pending and re-dispatches after a delay; if the line has
// left W by then, the retry falls back to the wired path. Fault aborts
// back off exponentially per line — the channel is evidently bad, and
// hammering it only burns energy while the directory's demotion
// countdown runs.
//
//proto:stop
func (l *L1Ctrl) wirelessTxAborted(ww *wirelessWrite, jammed bool) {
	defer l.freeWrite(ww)
	l.wwrites.del(ww.line)
	ln := l.data.Lookup(ww.line)
	if ln != nil {
		ln.NonEvict = false
	}
	delay := l.retryJitter()
	if !jammed {
		l.Stats.WirelessTxFailures.Inc()
		fails, _ := l.wwFails.get(ww.line)
		fails++
		l.wwFails.put(ww.line, fails)
		delay <<= uint(min(fails, 5))
	}
	// Re-dispatch; the line's state then decides wired vs wireless.
	l.requeueShim(delay, ww.req, ww.line)
}

// drainWaitersFor re-dispatches accesses that queued behind a completed
// transaction on the line.
func (l *L1Ctrl) drainWaitersFor(line addrspace.Line) {
	p, ok := l.pending.get(line)
	if !ok || p.req != nil {
		return
	}
	// Shim entry created to queue behind a wireless write.
	l.pending.del(line)
	for _, r := range p.waiters {
		l.Access(r)
	}
	l.releasePending(p)
}

func (l *L1Ctrl) retryJitter() uint64 {
	l.retrySeed = l.retrySeed*6364136223846793005 + 1442695040888963407
	return l.cfg.RetryDelay + (l.retrySeed>>33)%l.cfg.RetryDelay
}

// serializeWrite and observeRead feed the optional value-coherence
// checker.
func (l *L1Ctrl) serializeWrite(a addrspace.Addr, v uint64) {
	if l.OnSerializedWrite != nil {
		l.OnSerializedWrite(l.env.Now(), a, v)
	}
}

func (l *L1Ctrl) observeRead(a addrspace.Addr, v uint64) {
	if l.OnObservedRead != nil {
		l.OnObservedRead(l.env.Now(), l.id, a, v)
	}
}

// HandleWired dispatches a wired message delivered to this L1. It
// reports whether the L1 kept m (see Env): only a fill parked behind a
// fully pinned set, and the messages held behind it, are kept.
func (l *L1Ctrl) HandleWired(now uint64, m *Msg) (kept bool) {
	if l.held.length() > 0 {
		if r, ok := l.held.get(m.Line); ok {
			r.q = append(r.q, m)
			return true
		}
	}
	switch m.Type {
	case MsgDataS, MsgDataE, MsgDataM, MsgDataOwnerS, MsgDataOwnerM, MsgWirUpgr:
		return l.handleDataResponse(now, m)
	case MsgNACK:
		l.handleNACK(m)
	case MsgWDiscard:
		l.handleWDiscard(m)
	case MsgInv:
		l.handleInv(m)
	case MsgFwdGetS:
		l.handleFwdGetS(m)
	case MsgFwdGetX:
		l.handleFwdGetX(m)
	case MsgRecall:
		l.handleRecall(m)
	case MsgPutAck:
		l.victims.del(m.Line)
	default:
		l.fail(m.Line, "L1 cannot handle %v from %d", m.Type, m.Src)
	}
	return false
}

// fillPark retries a fill parked behind a fully pinned set (see
// handleDataResponse) a cycle later. Until then it holds every later
// wired message for the line behind the fill, because the home relies
// on the L1 handling a line's messages in the order the mesh delivers
// them: a forward that overtook the fill would find no line to serve.
type fillPark struct {
	l *L1Ctrl
	q []*Msg // q[0] is the fill, then the held messages in arrival order
}

// Run implements engine.Runner: it replays the queue in arrival order.
// A fill that must park again re-registers the line, so HandleWired
// holds the rest of the queue behind it.
func (r *fillPark) Run(now uint64) {
	l := r.l
	l.held.del(r.q[0].Line)
	for _, m := range r.q {
		if !l.HandleWired(now, m) {
			l.env.FreeMsg(m)
		}
	}
	clear(r.q)
	r.q = r.q[:0]
	l.parkFree.Put(r)
}

// handleDataResponse applies a data grant. A grant whose ReqID matches
// the line's outstanding request completes it; any other grant answers
// an abandoned request and is installed idempotently (the directory has
// already committed the state change), completing nothing. It reports
// whether it kept m, parked for a retry.
func (l *L1Ctrl) handleDataResponse(now uint64, m *Msg) (kept bool) {
	// If the target set is entirely pinned (RMW windows, in-flight
	// upgrades), the fill waits at the network interface; pins clear
	// within a bounded number of cycles.
	if l.data.Lookup(m.Line) == nil {
		if _, ok := l.data.Victim(m.Line); !ok {
			r := l.parkFree.Get()
			r.l = l
			r.q = append(r.q, m)
			l.held.put(m.Line, r)
			l.env.AfterRunner(1, r)
			return true
		}
	}
	p, _ := l.pending.get(m.Line)
	matches := p != nil && p.req != nil && p.reqID == m.ReqID
	toneHeld := false
	if matches {
		l.pending.del(m.Line)
		toneHeld = p.toneHeld
		if p.toneHeld {
			l.env.LowerTone()
			p.toneHeld = false
		}
	}

	var st cache.State
	switch m.Type {
	case MsgDataS, MsgDataOwnerS:
		st = cache.Shared
	case MsgDataE:
		st = cache.Exclusive
	case MsgDataM, MsgDataOwnerM:
		st = cache.Modified
	case MsgWirUpgr:
		st = cache.Wireless
	default:
		l.fail(m.Line, "handleDataResponse dispatched a non-grant %v from %d", m.Type, m.Src)
		return false
	}
	wirelessGrant := m.Type == MsgWirUpgr
	if toneHeld && st == cache.Shared && !p.invalidated {
		// ToneAck case (iii): a BrWirUpgr arrived while our request was
		// in flight and the directory has counted us into the wireless
		// sharer group — the line installs in W ("if it has received
		// the line, it has set its cache state for the line to W",
		// §III-B1). Not so for a grant an invalidation passed in
		// flight: the directory explicitly uncounted us, so installing
		// W here would create an uncounted wireless copy; the use-once
		// path below consumes it instead.
		st = cache.Wireless
		wirelessGrant = true
	}

	// A stale Shared grant is dropped rather than installed: the
	// directory may have invalidated the sharer set since, and an
	// untracked S copy breaks coherence. (Dropping is safe — directory
	// pointers may be a superset of holders.) Stale ownership grants
	// must install: the directory has committed us as owner.
	if !matches && st == cache.Shared {
		return false
	}
	// A matching Shared fill that an invalidation passed in flight is
	// consumed use-once: serve the load from the message data without
	// installing the line.
	if matches && st == cache.Shared && p.invalidated {
		w := addrspace.WordOf(p.req.Addr)
		v := m.Words[w]
		l.observeRead(p.req.Addr, v)
		l.completeNow(p.req, v)
		l.redispatch(p.waiters)
		l.releasePending(p)
		return false
	}

	// A queued wireless write cannot survive a non-W install (the line
	// is leaving W); pull it back and re-dispatch it after the install.
	if st != cache.Wireless {
		if r := l.cancelQueuedWrite(m.Line); r != nil {
			l.requeueShim(1, r, m.Line)
		}
	}

	ln := l.install(m.Line, st, m.Words)
	if ln == nil {
		return false // install failed a protocol check; the error is latched
	}
	if l.cfg.Trace != nil {
		l.cfg.Trace.Emit(obs.Event{Cycle: now, Kind: obs.EvL1Fill,
			Node: int32(l.id), Other: int32(m.Src), Line: m.Line,
			A: uint64(m.Type), B: uint64(st)})
	}
	if _, stillPending := l.pending.get(m.Line); stillPending {
		// A different request of ours is still outstanding for this
		// line (this grant answered an abandoned one): keep the copy
		// pinned so its eviction notice cannot trail that request.
		ln.NonEvict = true
	}

	if m.Type == MsgDataOwnerM {
		// Ownership arrived from the old owner; tell the home so it can
		// record us and unblock the entry.
		l.env.SendWired(l.id, l.env.HomeOf(m.Line), PortHome, Msg{
			Type: MsgXferAck, Line: m.Line, Src: l.id,
		})
	}
	if m.Type == MsgWirUpgr {
		ln.UpdateCount = 0
		if m.NeedAck {
			l.env.SendWired(l.id, l.env.HomeOf(m.Line), PortHome, Msg{
				Type: MsgWirUpgrAck, Line: m.Line, Src: l.id,
			})
		}
	}
	if !matches {
		return false
	}

	if wirelessGrant {
		ln.UpdateCount = 0
		// Table I I->W: a read completes locally; a write or RMW issues
		// its update wirelessly.
		switch p.kind {
		case pendLoad:
			w := addrspace.WordOf(p.req.Addr)
			v := ln.Words[w]
			l.observeRead(p.req.Addr, v)
			l.completeNow(p.req, v)
		default:
			l.wirelessStore(ln, p.req)
		}
		l.redispatch(p.waiters)
		l.releasePending(p)
		return false
	}

	// Wired grant: complete the access.
	w := addrspace.WordOf(p.req.Addr)
	switch p.kind {
	case pendLoad:
		v := ln.Words[w]
		l.observeRead(p.req.Addr, v)
		l.completeNow(p.req, v)
	case pendStore:
		ln.State = cache.Modified
		ln.Words[w] = p.req.Value
		ln.Dirty = true
		l.serializeWrite(p.req.Addr, p.req.Value)
		l.completeNow(p.req, p.req.Value)
	case pendRMW:
		ln.State = cache.Modified
		old := ln.Words[w]
		ln.Words[w] = p.req.RMW.Apply(old, p.req.Value, p.req.Expected)
		ln.Dirty = true
		l.serializeWrite(p.req.Addr, ln.Words[w])
		l.observeRead(p.req.Addr, old)
		l.completeNow(p.req, old)
	}
	l.redispatch(p.waiters)
	l.releasePending(p)
	return false
}

// redispatch re-enters queued accesses now that the line is resident,
// one event each.
//
//proto:stop
func (l *L1Ctrl) redispatch(waiters []*MemRequest) {
	for _, r := range waiters {
		l.requeue(0, r, nil)
	}
}

// accessRunner re-dispatches accesses through Access, in order.
type accessRunner struct {
	l    *L1Ctrl
	reqs []*MemRequest
}

// Run implements engine.Runner.
func (r *accessRunner) Run(now uint64) {
	for i, req := range r.reqs {
		r.reqs[i] = nil
		r.l.Access(req)
	}
	r.reqs = r.reqs[:0]
	r.l.accFree.Put(r)
}

// handleNACK retries the bounced request after a jittered delay. Stale
// NACKs (shim entries or superseded request ids) are ignored. At retry
// time the request may have become locally satisfiable — an abandoned
// grant may have installed the line meanwhile — in which case it is
// re-dispatched through Access instead of re-sent.
func (l *L1Ctrl) handleNACK(m *Msg) {
	p, ok := l.pending.get(m.Line)
	if !ok || p.req == nil || p.reqID != m.ReqID {
		return
	}
	l.Stats.NACKs.Inc()
	if p.toneHeld {
		// The node had a request in flight when a BrWirUpgr arrived;
		// receiving the bounce completes its part of the ToneAck.
		l.env.LowerTone()
		p.toneHeld = false
	}
	p.retries++
	delay := l.retryJitter() * uint64(min(p.retries, 4))
	r := l.nackFree.Get()
	r.l, r.p, r.gen, r.line = l, p, p.gen, m.Line
	l.env.AfterRunner(delay, r)
}

// nackRetry is the pooled retry timer of a NACKed request. It copies
// the line, so the NACK itself is not kept.
type nackRetry struct {
	l    *L1Ctrl
	p    *pendingReq
	gen  uint64
	line addrspace.Line
}

// Run implements engine.Runner.
func (r *nackRetry) Run(now uint64) {
	l, p, gen, line := r.l, r.p, r.gen, r.line
	r.p = nil
	l.nackFree.Put(r)
	// The generation check rejects a recycled entry that landed on the
	// same line again: same pointer, different transaction.
	if pp, ok := l.pending.get(line); !ok || pp != p || p.gen != gen {
		return
	}
	if ln := l.data.Lookup(line); ln != nil && l.satisfies(ln, p) {
		l.pending.del(line)
		ln.NonEvict = false
		l.requeue(1, p.req, p.waiters)
		l.releasePending(p)
		return
	}
	t := MsgGetS
	if p.kind != pendLoad {
		t = MsgGetX
	}
	p.isSharer = false
	if ln := l.data.Lookup(line); ln != nil && ln.State == cache.Shared {
		p.isSharer = true
		ln.NonEvict = true
	}
	l.sendRequest(p, t)
}

// satisfies reports whether the resident line can serve the pending
// request without a directory transaction.
func (l *L1Ctrl) satisfies(ln *cache.Line, p *pendingReq) bool {
	if p.kind == pendLoad {
		return ln.State.Valid()
	}
	switch ln.State {
	case cache.Modified, cache.Exclusive, cache.Wireless:
		return true
	default:
		return false // Shared cannot absorb a write; Invalid holds nothing
	}
}

// handleWDiscard resolves a discarded stale upgrade (Table II W->W case
// 2) that could not resolve locally: the requester lost its copy before
// the BrWirUpgr, so it re-requests as a non-sharer.
func (l *L1Ctrl) handleWDiscard(m *Msg) {
	p, ok := l.pending.get(m.Line)
	if !ok || p.req == nil || p.reqID != m.ReqID {
		return // resolved locally via the BrWirUpgr, as Table II expects
	}
	if p.toneHeld {
		l.env.LowerTone()
		p.toneHeld = false
	}
	if ln := l.data.Lookup(m.Line); ln != nil && l.satisfies(ln, p) {
		l.pending.del(m.Line)
		ln.NonEvict = false
		l.requeue(1, p.req, p.waiters)
		l.releasePending(p)
		return
	}
	p.isSharer = false
	t := MsgGetS
	if p.kind != pendLoad {
		t = MsgGetX
	}
	l.sendRequest(p, t)
}

// requeue re-dispatches first and then rest through Access after
// delay, in order, so nothing is stranded behind a dissolved
// transaction. rest is copied; the caller may reuse it.
//
//proto:stop
func (l *L1Ctrl) requeue(delay uint64, first *MemRequest, rest []*MemRequest) {
	r := l.accFree.Get()
	r.l = l
	r.reqs = append(append(r.reqs, first), rest...)
	l.env.AfterRunner(delay, r)
}

// requeueShim requeues the request of a withdrawn wireless write
// together with the accesses queued behind the write on its line (the
// shim entry, which it dissolves).
//
//proto:stop
func (l *L1Ctrl) requeueShim(delay uint64, first *MemRequest, line addrspace.Line) {
	p, ok := l.pending.get(line)
	if !ok || p.req != nil {
		l.requeue(delay, first, nil)
		return
	}
	l.pending.del(line)
	l.requeue(delay, first, p.waiters)
	l.releasePending(p)
}

// handleInv invalidates a (possibly absent) Shared copy and always
// acks, so the home's ack accounting is exact even across races with
// in-flight evictions. An Inv that passes an in-flight owner-sourced
// fill (the owner sends data directly, on a different path than the
// home's Inv) marks the pending request so the fill is consumed
// use-once instead of leaving an untracked Shared copy behind.
func (l *L1Ctrl) handleInv(m *Msg) {
	if p, ok := l.pending.get(m.Line); ok && p.req != nil {
		p.invalidated = true
	}
	if ln := l.data.Lookup(m.Line); ln != nil {
		switch ln.State {
		case cache.Shared:
			l.data.Invalidate(m.Line)
		case cache.Exclusive, cache.Modified, cache.Wireless:
			l.fail(m.Line, "Inv from %d for a line held in %v", m.Src, ln.State)
			return
		default:
			// Lookup never returns an Invalid line; nothing to drop.
		}
	}
	l.env.SendWired(l.id, m.Src, PortHome, Msg{Type: MsgInvAck, Line: m.Line, Src: l.id})
}

// ownerCopy fetches the line from the cache or the victim buffer for a
// forwarded request; the home's blocking discipline guarantees one of
// the two holds it. ok=false reports that guarantee broken (a protocol
// error has been filed and the forward must be dropped).
func (l *L1Ctrl) ownerCopy(line addrspace.Line) (words [addrspace.WordsPerLine]uint64, dirty bool, fromCache *cache.Line, ok bool) {
	if ln := l.data.Lookup(line); ln != nil {
		return ln.Words, ln.Dirty, ln, true
	}
	if v, ok := l.victims.get(line); ok {
		return v.words, v.dirty, nil, true
	}
	l.fail(line, "forwarded request for a line this L1 does not hold")
	return words, false, nil, false
}

// handleFwdGetS: we own the line; send data to the requester, copy back
// to home, downgrade to Shared (MESI).
func (l *L1Ctrl) handleFwdGetS(m *Msg) {
	words, dirty, ln, ok := l.ownerCopy(m.Line)
	if !ok {
		return
	}
	if ln != nil {
		ln.State = cache.Shared
		ln.Dirty = false
	}
	l.env.SendWired(l.id, m.Requester, PortL1, Msg{
		Type: MsgDataOwnerS, Line: m.Line, Src: l.id, ReqID: m.ReqID, HasData: true, Words: words,
	})
	l.env.SendWired(l.id, m.Src, PortHome, Msg{
		Type: MsgCopyBack, Line: m.Line, Src: l.id, Requester: m.Requester,
		HasData: true, NeedAck: dirty, Words: words,
	})
}

// handleFwdGetX: we own the line; transfer data+ownership to the
// requester and invalidate our copy.
func (l *L1Ctrl) handleFwdGetX(m *Msg) {
	words, _, ln, ok := l.ownerCopy(m.Line)
	if !ok {
		return
	}
	if ln != nil {
		l.data.Invalidate(m.Line)
	}
	l.env.SendWired(l.id, m.Requester, PortL1, Msg{
		Type: MsgDataOwnerM, Line: m.Line, Src: l.id, ReqID: m.ReqID, HasData: true, Words: words,
	})
}

// handleRecall: home is evicting our owned line's directory entry.
func (l *L1Ctrl) handleRecall(m *Msg) {
	resp := Msg{Type: MsgRecallAck, Line: m.Line, Src: l.id}
	if ln := l.data.Lookup(m.Line); ln != nil {
		resp.HasData, resp.Words = ln.Dirty, ln.Words
		l.data.Invalidate(m.Line)
	} else if v, ok := l.victims.get(m.Line); ok {
		resp.HasData, resp.Words = v.dirty, v.words
	}
	l.env.SendWired(l.id, m.Src, PortHome, resp)
}

// install places a granted line, evicting a victim first if needed.
func (l *L1Ctrl) install(line addrspace.Line, st cache.State, words [addrspace.WordsPerLine]uint64) *cache.Line {
	if l.data.Lookup(line) != nil {
		// Already resident (e.g. an upgrade grant): reuse the slot in
		// place; no victim is displaced.
		return l.data.Install(line, st, words)
	}
	victim, ok := l.data.Victim(line)
	if !ok {
		// Every way pinned by RMW windows; extremely short-lived.
		// Installing over a pinned line is unsafe, so fail loudly —
		// configs must keep ways > concurrent RMWs.
		l.fail(line, "install with the target set fully pinned")
		return nil
	}
	if victim != nil {
		l.evict(victim)
	}
	return l.data.Install(line, st, words)
}

// evict removes a resident line, notifying the home (the paper: a node
// always informs the directory when any line is evicted). Every valid
// stable state invalidates locally and sends the matching Put; the
// walker cannot see the Invalidate through the cache indirection, so
// the rows are annotated.
//
//proto:event Evict
//proto:transition l1 S Evict -> I
//proto:transition l1 E Evict -> I
//proto:transition l1 M Evict -> I
//proto:transition l1 W Evict -> I
func (l *L1Ctrl) evict(ln *cache.Line) {
	l.Stats.Evictions.Inc()
	line := ln.Addr
	// A queued (not yet serialized) wireless write to the victim is
	// pulled back and re-dispatched; it will re-acquire the line via the
	// wired path. If the transmission is already on the air it will
	// serialize coherently (everyone else merges it) and its completion
	// handler copes with the missing local line.
	if ww, ok := l.wwrites.get(line); ok && l.env.CancelWireless(ww.tx) {
		l.wwrites.del(line)
		l.requeueShim(1, ww.req, line)
		l.freeWrite(ww)
	}
	home := l.env.HomeOf(line)
	var t MsgType
	hasData := false
	switch ln.State {
	case cache.Shared:
		t = MsgPutS
	case cache.Exclusive:
		t = MsgPutE
		l.victims.put(line, victimEntry{words: ln.Words, state: ln.State, dirty: false})
	case cache.Modified:
		t = MsgPutM
		hasData = true
		l.victims.put(line, victimEntry{words: ln.Words, state: ln.State, dirty: true})
	case cache.Wireless:
		t = MsgPutW // Table I W->I: cache evicts W line
	default:
		l.fail(line, "evicting a line in state %v", ln.State)
		return
	}
	msg := Msg{Type: t, Line: line, Src: l.id, HasData: hasData}
	if hasData {
		msg.Words = ln.Words
	}
	l.data.Invalidate(line)
	l.env.SendWired(l.id, home, PortHome, msg)
}

// HandleWireless processes a broadcast delivered to this node's
// transceiver. Every node receives every successful transmission.
func (l *L1Ctrl) HandleWireless(now uint64, m *Msg) {
	switch m.Type {
	case MsgBrWirUpgr:
		l.handleBrWirUpgr(m)
	case MsgWirUpd:
		if m.Src != l.id {
			l.handleRemoteUpdate(m)
		}
	case MsgWirDwgr:
		l.handleWirDwgr(m)
	case MsgWirInv:
		l.handleWirInv(m)
	default:
		// Wired messages never travel on the data channel.
	}
}

// handleBrWirUpgr implements the cache side of the ToneAck operation
// and the S->W transition (Table I).
func (l *L1Ctrl) handleBrWirUpgr(m *Msg) {
	ln := l.data.Lookup(m.Line)
	pend, _ := l.pending.get(m.Line)
	if ln != nil && ln.State == cache.Shared {
		ln.State = cache.Wireless
		ln.UpdateCount = 0
		if pend != nil && pend.req != nil {
			// Table I S->W case 2: our upgrade GetX raced the
			// transition; the home will discard it. Resolve locally:
			// the line is W now, issue the write wirelessly.
			l.pending.del(m.Line)
			ln.NonEvict = false
			l.wirelessStore(ln, pend.req)
			l.redispatch(pend.waiters)
			l.releasePending(pend)
			return
		}
		return
	}
	if pend != nil && pend.req != nil && !pend.toneHeld {
		// Case (iii) of the ToneAck: we have a wired request in flight
		// for this line; hold the tone until the line or a bounce
		// arrives.
		pend.toneHeld = true
		l.env.RaiseTone()
	}
	// Nodes without the line and without a pending request complete
	// their ToneAck check immediately (never raise the tone).
}

// handleRemoteUpdate merges a remote wireless write (Table I W->W) and
// applies the UpdateCount decay rule. A pending local RMW observes the
// update and aborts per §IV-C.
func (l *L1Ctrl) handleRemoteUpdate(m *Msg) {
	ln := l.data.Lookup(m.Line)
	if ln == nil || ln.State != cache.Wireless {
		return
	}
	ln.Words[m.Word] = m.Words[m.Word]
	ln.UpdateCount++
	l.Stats.UpdatesReceived.Inc()

	if ww, busy := l.wwrites.get(m.Line); busy {
		if ww.req.IsRMW {
			// §IV-C: an incoming update to the line between the RMW's
			// read and the guaranteed transmission of its write fails
			// the write; the whole RMW retries.
			if !l.env.CancelWireless(ww.tx) {
				l.fail(m.Line, "remote update delivered while the local transmission is active")
				return
			}
			l.wwrites.del(m.Line)
			ln.NonEvict = false
			l.Stats.RMWRetries.Inc()
			l.requeueShim(l.retryJitter(), ww.req, m.Line)
			l.freeWrite(ww)
		}
		return
	}
	if ln.UpdateCount < l.cfg.UpdateCountMax {
		return
	}
	// The local core is not using the line: self-invalidate and tell
	// the directory — unless a wired transaction is mid-flight on it.
	if _, busy := l.pending.get(m.Line); busy {
		return
	}
	if l.cfg.Trace != nil {
		l.cfg.Trace.Emit(obs.Event{Cycle: l.env.Now(), Kind: obs.EvWDecay,
			Node: int32(l.id), Other: int32(m.Src), Line: m.Line,
			A: uint64(ln.UpdateCount)})
	}
	l.Stats.SelfInvalidations.Inc()
	l.data.Invalidate(m.Line)
	l.env.SendWired(l.id, l.env.HomeOf(m.Line), PortHome, Msg{Type: MsgPutW, Line: m.Line, Src: l.id})
}

// cancelQueuedWrite pulls back a queued (never active — a broadcast
// delivery implies the medium just freed) wireless write for the line;
// it returns the canceled write's request, or nil when none was queued.
func (l *L1Ctrl) cancelQueuedWrite(line addrspace.Line) *MemRequest {
	ww, ok := l.wwrites.get(line)
	if !ok {
		return nil
	}
	if !l.env.CancelWireless(ww.tx) {
		l.fail(line, "wireless delivery overlaps an active local transmission")
		return nil
	}
	l.wwrites.del(line)
	if ln := l.data.Lookup(line); ln != nil {
		ln.NonEvict = false
	}
	r := ww.req
	l.freeWrite(ww)
	return r
}

// handleWirDwgr moves our W copy back to Shared and identifies
// ourselves to the home via the wired network (Table I W->S).
func (l *L1Ctrl) handleWirDwgr(m *Msg) {
	ln := l.data.Lookup(m.Line)
	// A queued wireless write can no longer serialize in W; convert it
	// to a wired access after the downgrade.
	if r := l.cancelQueuedWrite(m.Line); r != nil {
		l.requeueShim(1, r, m.Line)
	}
	if ln == nil || ln.State != cache.Wireless {
		return
	}
	ln.State = cache.Shared
	ln.Dirty = false
	l.env.SendWired(l.id, m.Src, PortHome, Msg{Type: MsgWirDwgrAck, Line: m.Line, Src: l.id})
}

// handleWirInv drops the line because the home evicted its entry; a
// pending wireless write is squashed and retried on the wired path
// (Table I W->I, §IV-C).
func (l *L1Ctrl) handleWirInv(m *Msg) {
	if r := l.cancelQueuedWrite(m.Line); r != nil {
		l.data.Invalidate(m.Line)
		if r.IsRMW {
			l.Stats.RMWRetries.Inc()
		}
		l.requeueShim(1, r, m.Line)
		return
	}
	ln := l.data.Lookup(m.Line)
	if ln != nil && ln.State == cache.Wireless {
		l.data.Invalidate(m.Line)
	}
}
