package mcheck

import (
	"fmt"
	"slices"

	"repro/internal/addrspace"
	"repro/internal/obs"
)

// Action kinds. An action is one atomic model transition.
const (
	actDeliver  byte = iota // deliver head of wired channel a->b
	actAir                  // serialize the wireless transmission (a=kind, b=sender, c=line, d=val)
	actCorrupt              // fault-inject the wireless store (b=sender, c=line, d=val)
	actTone                 // commit the S->W upgrade once tones are quiet (c=line)
	actIssue                // core b issues op a (opLoad/opStore) on line c with value d
	actEvictL1              // core b spontaneously evicts line c
	actEvictDir             // directory evicts line c
)

type action struct {
	kind       byte
	a, b, c, d byte
}

func (a action) String() string {
	switch a.kind {
	case actDeliver:
		return fmt.Sprintf("recv %d->%d", a.a, a.b)
	case actAir:
		return fmt.Sprintf("air %s sender=%d line=%d", wNames[a.a], int8(a.b), a.c)
	case actCorrupt:
		return fmt.Sprintf("corrupt WirUpd sender=%d line=%d", a.b, a.c)
	case actTone:
		return fmt.Sprintf("tone-commit line=%d", a.c)
	case actIssue:
		if a.a == opLoad {
			return fmt.Sprintf("issue load core=%d line=%d", a.b, a.c)
		}
		return fmt.Sprintf("issue store core=%d line=%d val=%d", a.b, a.c, a.d)
	case actEvictL1:
		return fmt.Sprintf("evict-l1 core=%d line=%d", a.b, a.c)
	case actEvictDir:
		return fmt.Sprintf("evict-dir line=%d", a.c)
	}
	return "?"
}

// ctx is one transition application in progress. event is the current
// FSM event name used to validate every state change the handlers
// perform against the protomodel relation.
type ctx struct {
	ck    *Checker
	cfg   Config
	s     *state
	event string
	viol  *Violation
	emit  func(e obs.Event) // non-nil only during counterexample replay
	cov   map[string]int    // non-nil only when collecting coverage
	cycle uint64            // replay step, stamped into emitted events
}

// apply executes act on a clone of s and returns the successor (with
// any violation the step itself detected). The caller owns invariant
// checks over the resulting state.
func (ck *Checker) apply(s *state, act action, emit func(obs.Event), cov map[string]int, cycle uint64) (*state, *Violation) {
	x := &ctx{ck: ck, cfg: ck.cfg, s: ck.clone(s), emit: emit, cov: cov, cycle: cycle}
	switch act.kind {
	case actDeliver:
		x.deliver(int(act.a), int(act.b))
	case actAir:
		x.air(act)
	case actCorrupt:
		x.corrupt(act)
	case actTone:
		x.toneCommit(int(act.c))
	case actIssue:
		x.event = coreEvent(act.a)
		x.spendOp()
		x.access(int(act.b), int(act.c), act.a, act.d)
	case actEvictL1:
		x.event = "Evict"
		x.spendOp()
		x.evictL1(int(act.b), int(act.c))
	case actEvictDir:
		x.event = "Evict"
		x.spendOp()
		x.evictDir(int(act.c))
	}
	x.s.normalize()
	return x.s, x.viol
}

func coreEvent(op byte) string {
	if op == opLoad {
		return "CoreLoad"
	}
	return "CoreStore"
}

// spendOp consumes one unit of the operation budget.
func (x *ctx) spendOp() {
	if x.s.ops > 0 {
		x.s.ops--
	}
}

// ---------- small helpers ----------

func (x *ctx) dirNode() int { return x.cfg.L1s }
func (x *ctx) mcNode() int  { return x.cfg.L1s + 1 }

func (x *ctx) line(core, li int) *l1Line { return &x.s.l1[core*x.cfg.Lines+li] }
func (x *ctx) seen(core, li int) *byte   { return &x.s.seen[core*x.cfg.Lines+li] }

func (x *ctx) chn(src, dst int) *[]msg { return &x.s.chans[chIdx(x.cfg, src, dst)] }

func (x *ctx) violate(kind, format string, args ...any) {
	if x.viol == nil {
		x.viol = &Violation{Kind: kind, Msg: fmt.Sprintf(format, args...)}
	}
}

func (x *ctx) failProto(format string, args ...any) { x.violate("protocol", format, args...) }

func (x *ctx) count(key string) {
	if x.cov != nil {
		x.cov[key]++
	}
}

func (x *ctx) note(k obs.Kind, node, other int, li byte, a, b uint64) {
	if x.emit != nil {
		x.emit(obs.Event{Cycle: x.cycle, Kind: k, Node: int32(node), Other: int32(other),
			Line: addrspace.Line(li), A: a, B: b})
	}
}

func (x *ctx) send(src, dst int, m msg) {
	*x.chn(src, dst) = append(*x.chn(src, dst), m)
	x.note(obs.EvMsgSend, src, dst, m.line, uint64(m.typ), 0)
}

// clearTxn resets the in-flight transaction bookkeeping when a busy
// entry returns to a stable state, so stale bytes cannot split
// otherwise-identical canonical states.
func clearTxn(d *dirLine) {
	d.tReq, d.tReqType, d.tReqID = noNode, 0, 0
	d.tAcks, d.tAckIDs, d.tNewCount, d.tWaitTone = 0, 0, 0, false
}

func popcount(m uint16) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// ---------- FSM relation validation ----------

func dirFSMName(d *dirLine) string {
	if !d.exists {
		return dirNames[dI] // an absent entry re-enters the machine at DI
	}
	if d.busy != bNone {
		return busyNames[d.busy]
	}
	return dirNames[d.st]
}

// Coverage keys of the FSM states a hop enters: "l1:" or "dir:" and
// the state's name, built once so that counting a hop allocates
// nothing.
var (
	l1CovKeys   = prefixed("l1:", l1Names[:])
	dirCovKeys  = prefixed("dir:", dirNames[:])
	busyCovKeys = prefixed("dir:", busyNames[:])
)

func prefixed(prefix string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = prefix + n
	}
	return out
}

// dirCovKey is the coverage key of dirFSMName(d).
func dirCovKey(d *dirLine) string {
	switch {
	case !d.exists:
		return dirCovKeys[dI]
	case d.busy != bNone:
		return busyCovKeys[d.busy]
	}
	return dirCovKeys[d.st]
}

func (x *ctx) checkHop(r *rel, from, to string) {
	if x.viol != nil {
		return
	}
	if !r.allows(from, x.event, to) {
		x.violate("relation", "machine %s: hop %s --%s--> %s has no spec row", r.name, from, x.event, to)
	}
}

// dirSet applies a directory FSM change and validates the hop.
func (x *ctx) dirSet(li int, st, busy byte) {
	d := &x.s.dir[li]
	from := dirFSMName(d)
	d.st, d.busy = st, busy
	to := dirFSMName(d)
	if from == to {
		return
	}
	x.count(dirCovKey(d))
	x.checkHop(x.ck.dirM, from, to)
}

// l1Set applies an L1 FSM change and validates the hop.
func (x *ctx) l1Set(core, li int, st byte) {
	L := x.line(core, li)
	from := l1Names[L.st]
	L.st = st
	if from == l1Names[st] {
		return
	}
	x.count(l1CovKeys[st])
	x.checkHop(x.ck.l1M, from, l1Names[st])
}

// coverStable flags a delivery that changed nothing in a stable state
// yet has no spec row or covered pair sanctioning the (state, event).
func (x *ctx) coverStable(r *rel, from string) {
	if x.viol != nil {
		return
	}
	if !r.hasRow(from, x.event) {
		x.violate("relation", "machine %s: event %s in state %s is unspecified", r.name, x.event, from)
	}
}

// invalidate fully clears an L1 line (victim buffer untouched).
func (x *ctx) invalidateL1(core, li int) {
	x.l1Set(core, li, sI)
	L := x.line(core, li)
	L.val, L.ver, L.upd = 0, 0, 0
	L.dirty, L.nonEvict = false, false
}

func (x *ctx) clearPend(L *l1Line) {
	L.pend, L.pKind, L.pVal, L.pShare, L.pTone, L.pInv, L.pReqID = false, 0, 0, false, false, false, 0
}

// nextReqID allocates a request id distinct from everything this
// (core, line) still has outstanding. IDs are renormalized
// order-preservingly at canonicalization, so max+1 is stable.
func (x *ctx) nextReqID(core, li int) byte {
	max := byte(0)
	consider := func(id byte) {
		if id > max {
			max = id
		}
	}
	L := x.line(core, li)
	if L.pend {
		consider(L.pReqID)
	}
	d := &x.s.dir[li]
	if d.busy != bNone && d.tReq == byte(core) {
		consider(d.tReqID)
	}
	nodes := x.cfg.L1s + 2
	forEachMsg(x.s, nodes, func(src, dst int, m *msg) {
		if int(m.line) == li && ownerOfReqID(m, src, dst, x.cfg.L1s) == core {
			consider(m.reqID)
		}
	})
	return max + 1
}

// hasQueuedUpd reports whether core has an un-serialized wireless
// store for li, returning its queue index.
func (x *ctx) queuedUpd(core, li int) int {
	for i, w := range x.s.wq {
		if w.kind == wUpd && w.sender == byte(core) && int(w.line) == li {
			return i
		}
	}
	return -1
}

func (x *ctx) removeWtx(i int) wtx {
	w := x.s.wq[i]
	x.s.wq = slices.Delete(x.s.wq, i, i+1)
	return w
}

// jammed mirrors the directory's line-jamming predicate: wireless
// transactions that reconfigure the sharing regime close the channel
// to unprivileged stores.
func (x *ctx) jammed(li int) bool {
	switch x.s.dir[li].busy {
	case bSToW, bWAddSharer, bWToS:
		return true
	}
	return false
}

// toneQuiet reports no L1 holding the wireless tone.
func (x *ctx) toneQuiet() bool {
	for i := range x.s.l1 {
		if x.s.l1[i].pTone {
			return false
		}
	}
	return true
}

// ---------- ghost-value integrity ----------

// serializeWrite records a new globally-serialized version of li with
// value v and returns the version.
func (x *ctx) serializeWrite(li int, v byte) byte {
	x.s.curVer[li]++
	x.s.curVal[li] = v
	return x.s.curVer[li]
}

// observeRead checks a load completion on core: per-core version
// monotonicity, and agreement with the ghost log when the version is
// current.
func (x *ctx) observeRead(core, li int, val, ver byte) {
	sp := x.seen(core, li)
	if ver < *sp {
		x.violate("integrity", "core %d read line %d at version %d after observing version %d (non-monotone)", core, li, ver, *sp)
		return
	}
	if ver == x.s.curVer[li] && val != x.s.curVal[li] {
		x.violate("integrity", "core %d read line %d value %d at current version %d, expected %d", core, li, val, ver, x.s.curVal[li])
		return
	}
	*sp = ver
}

// ---------- core issue side (coherence.L1.Access) ----------

func (x *ctx) access(core, li int, op, val byte) {
	L := x.line(core, li)
	pre := l1Names[L.st]
	x.accessInner(core, li, op, val)
	if x.viol == nil && l1Names[x.line(core, li).st] == pre {
		x.coverStable(x.ck.l1M, pre)
	}
}

func (x *ctx) accessInner(core, li int, op, val byte) {
	L := x.line(core, li)
	if L.st == sI {
		x.miss(core, li, op, val, false)
		return
	}
	if op == opLoad {
		if L.st == sW {
			L.upd = 0 // a local touch resets the decay countdown
		}
		x.observeRead(core, li, L.val, L.ver)
		return
	}
	switch L.st {
	case sE, sM:
		if L.ver != x.s.curVer[li] {
			x.violate("integrity", "core %d stored to line %d over version %d, current is %d (lost update)", core, li, L.ver, x.s.curVer[li])
			return
		}
		x.l1Set(core, li, sM)
		L = x.line(core, li)
		L.val, L.ver, L.dirty = val, x.serializeWrite(li, val), true
		*x.seen(core, li) = L.ver
	case sW:
		x.wirelessStore(core, li, val)
	case sS:
		x.miss(core, li, op, val, true)
	}
}

func (x *ctx) miss(core, li int, op, val byte, isSharer bool) {
	L := x.line(core, li)
	L.pend, L.pKind, L.pVal, L.pShare, L.pTone, L.pInv = true, op, val, isSharer, false, false
	L.pReqID = x.nextReqID(core, li)
	if isSharer {
		L.nonEvict = true // pin the S copy the upgrade path relies on
	}
	typ := byte(mGetS)
	if op == opStore {
		typ = mGetX
	}
	x.note(obs.EvL1Miss, core, x.dirNode(), byte(li), uint64(typ), 0)
	x.send(core, x.dirNode(), msg{typ: typ, line: byte(li), req: byte(core), reqID: L.pReqID, isSharer: isSharer})
}

// wirelessStore queues an unprivileged fine-grain wireless write.
func (x *ctx) wirelessStore(core, li int, val byte) {
	x.s.wq = append(x.s.wq, wtx{kind: wUpd, sender: byte(core), line: byte(li), val: val})
	x.count("wq:upd")
}

// ---------- spontaneous evictions ----------

func (x *ctx) evictL1(core, li int) {
	L := x.line(core, li)
	redispatch := false
	var redisVal byte
	if i := x.queuedUpd(core, li); i >= 0 {
		w := x.removeWtx(i)
		redispatch, redisVal = true, w.val
	}
	st, val, ver := L.st, L.val, L.ver
	x.invalidateL1(core, li)
	switch st {
	case sS:
		x.send(core, x.dirNode(), msg{typ: mPutS, line: byte(li)})
	case sE:
		if L.vic {
			x.failProto("core %d evicted line %d with its victim buffer still occupied", core, li)
			return
		}
		L.vic, L.vicVal, L.vicVer, L.vicDirty = true, val, ver, false
		x.send(core, x.dirNode(), msg{typ: mPutE, line: byte(li)})
	case sM:
		if L.vic {
			x.failProto("core %d evicted line %d with its victim buffer still occupied", core, li)
			return
		}
		L.vic, L.vicVal, L.vicVer, L.vicDirty = true, val, ver, true
		x.send(core, x.dirNode(), msg{typ: mPutM, line: byte(li), hasData: true, val: val, ver: ver})
	case sW:
		x.send(core, x.dirNode(), msg{typ: mPutW, line: byte(li)})
	}
	if redispatch {
		x.event = "CoreStore"
		x.access(core, li, opStore, redisVal)
	}
}

func (x *ctx) evictDir(li int) {
	d := &x.s.dir[li]
	x.count("dir-evict")
	switch d.st {
	case dI:
		x.finishDirEvict(li)
	case dS:
		x.dirSet(li, d.st, bEvict)
		acks := 0
		for c := 0; c < x.cfg.L1s; c++ {
			if d.sharers&(1<<c) != 0 {
				x.send(x.dirNode(), c, msg{typ: mInv, line: byte(li)})
				acks++
			}
		}
		d.tAcks = int8(acks)
		if acks == 0 {
			x.finishDirEvict(li)
		}
	case dO:
		x.dirSet(li, d.st, bEvict)
		d.tAcks = 1
		x.send(x.dirNode(), int(d.owner), msg{typ: mRecall, line: byte(li)})
	case dW:
		x.dirSet(li, d.st, bEvict)
		x.s.wq = append(x.s.wq, wtx{kind: wInv, sender: noNode, line: byte(li)})
		x.note(obs.EvWInv, x.dirNode(), -1, byte(li), 0, 0)
	}
}

// finishDirEvict writes back and drops the entry, acking any puts
// that were deferred behind the eviction. The entry keeps its deferred
// array for the next puts it absorbs.
func (x *ctx) finishDirEvict(li int) {
	d := &x.s.dir[li]
	x.writebackIfDirty(li)
	deferred := d.deferred
	x.dirSet(li, dI, bNone)
	*d = dirLine{owner: noNode, tReq: noNode, deferred: deferred[:0]}
	for _, m := range deferred {
		x.ackPut(li, int(m.req))
	}
}

// ---------- wired network ----------

func (x *ctx) deliver(src, dst int) {
	ch := x.chn(src, dst)
	if len(*ch) == 0 {
		x.failProto("deliver on empty channel %d->%d", src, dst)
		return
	}
	m := (*ch)[0]
	*ch = (*ch)[:copy(*ch, (*ch)[1:])]
	x.note(obs.EvMsgRecv, dst, src, m.line, uint64(m.typ), 0)
	x.event = mtNames[m.typ]
	switch {
	case dst == x.mcNode():
		x.mcDeliver(src, m)
	case dst == x.dirNode():
		x.homeDeliver(src, m)
	default:
		x.l1Deliver(dst, src, m)
	}
}

// mcDeliver is the memory controller: a flat backing store.
func (x *ctx) mcDeliver(src int, m msg) {
	switch m.typ {
	case mMemRead:
		x.send(x.mcNode(), src, msg{typ: mMemData, line: m.line,
			hasData: true, val: x.s.memVal[m.line], ver: x.s.memVer[m.line]})
	case mMemWrite:
		x.s.memVal[m.line], x.s.memVer[m.line] = m.val, m.ver
	default:
		x.failProto("memory controller received %s", mtNames[m.typ])
	}
}

// ---------- directory (coherence.Home) ----------

func (x *ctx) homeDeliver(src int, m msg) {
	li := int(m.line)
	d := &x.s.dir[li]
	pre := ""
	if d.exists && d.busy == bNone {
		pre = dirNames[d.st]
	}
	switch m.typ {
	case mGetS, mGetX:
		x.reprocess(src, m)
	case mPutS, mPutE, mPutM, mPutW:
		x.processOrDefer(src, m)
	case mInvAck, mCopyBack, mXferAck, mRecallAck, mWirUpgrAck, mWirDwgrAck:
		x.processAck(src, m)
	case mMemData:
		x.processMemData(m)
	default:
		x.failProto("directory received %s from %d", mtNames[m.typ], src)
	}
	if x.viol == nil && pre != "" && dirFSMName(&x.s.dir[li]) == pre {
		x.coverStable(x.ck.dirM, pre)
	}
}

func (x *ctx) nack(dst, li int, reqID byte) {
	x.note(obs.EvNACK, x.dirNode(), dst, byte(li), 0, 0)
	x.count("nack")
	x.send(x.dirNode(), dst, msg{typ: mNACK, line: byte(li), reqID: reqID})
}

func (x *ctx) reprocess(src int, m msg) {
	li := int(m.line)
	d := &x.s.dir[li]
	if !d.exists {
		d.exists, d.st, d.owner, d.tReq = true, dI, noNode, noNode
	}
	if d.busy != bNone {
		x.nack(src, li, m.reqID)
		return
	}
	switch d.st {
	case dI:
		x.serveUncached(src, m)
	case dS:
		x.serveShared(src, m)
	case dO:
		x.serveOwned(src, m)
	case dW:
		x.serveWireless(src, m)
	}
}

func (x *ctx) serveUncached(src int, m msg) {
	li := int(m.line)
	d := &x.s.dir[li]
	if !d.hasData {
		d.tReq, d.tReqType, d.tReqID = byte(src), m.typ, m.reqID
		x.dirSet(li, d.st, bFetchMem)
		x.send(x.dirNode(), x.mcNode(), msg{typ: mMemRead, line: m.line})
		return
	}
	x.grantFromLLC(li, src, m.typ, m.reqID)
}

func (x *ctx) grantFromLLC(li, req int, reqType, reqID byte) {
	d := &x.s.dir[li]
	typ := byte(mDataE)
	if reqType == mGetX {
		typ = mDataM
		d.ownerDty = true
	} else {
		d.ownerDty = false
	}
	x.dirSet(li, dO, bNone)
	d.owner = byte(req)
	x.send(x.dirNode(), req, msg{typ: typ, line: byte(li), reqID: reqID,
		hasData: true, val: d.val, ver: d.ver})
}

func (x *ctx) serveShared(src int, m msg) {
	li := int(m.line)
	d := &x.s.dir[li]
	isSharer := d.sharers&(1<<src) != 0
	if m.typ == mGetS {
		if !isSharer && popcount(d.sharers)+1 > x.cfg.MaxWiredSharers {
			x.startSToW(src, m, byte(popcount(d.sharers)+1))
			return
		}
		d.sharers |= 1 << src
		x.send(x.dirNode(), src, msg{typ: mDataS, line: m.line, reqID: m.reqID,
			hasData: true, val: d.val, ver: d.ver})
		return
	}
	// GetX. An upgrade claiming a Shared copy this entry does not list
	// is provably stale (tracked-S plus per-source FIFO): discard with
	// notification instead of counting a never-joining core into a
	// fresh S->W upgrade.
	if m.isSharer && !isSharer {
		x.send(x.dirNode(), src, msg{typ: mWDiscard, line: m.line, reqID: m.reqID})
		x.count("wdiscard-ds")
		return
	}
	if !isSharer && popcount(d.sharers)+1 > x.cfg.MaxWiredSharers {
		x.startSToW(src, m, byte(popcount(d.sharers)+1))
		return
	}
	// GetX from a listed sharer (or within the wired budget):
	// invalidate everyone else and grant M.
	d.tReq, d.tReqType, d.tReqID = byte(src), m.typ, m.reqID
	x.dirSet(li, d.st, bInvAll)
	acks := 0
	for c := 0; c < x.cfg.L1s; c++ {
		if c != src && d.sharers&(1<<c) != 0 {
			x.send(x.dirNode(), c, msg{typ: mInv, line: m.line})
			acks++
		}
	}
	d.tAcks = int8(acks)
	if acks == 0 {
		x.finishInvAll(li)
	}
}

func (x *ctx) finishInvAll(li int) {
	d := &x.s.dir[li]
	req, reqID := int(d.tReq), d.tReqID
	clearTxn(d)
	x.dirSet(li, dO, bNone)
	d.sharers = 0
	d.owner, d.ownerDty = byte(req), true
	x.send(x.dirNode(), req, msg{typ: mDataM, line: byte(li), reqID: reqID,
		hasData: true, val: d.val, ver: d.ver})
	x.drainDeferred(li)
}

func (x *ctx) serveOwned(src int, m msg) {
	li := int(m.line)
	d := &x.s.dir[li]
	if byte(src) == d.owner {
		x.nack(src, li, m.reqID)
		return
	}
	d.tReq, d.tReqType, d.tReqID = byte(src), m.typ, m.reqID
	if m.typ == mGetS {
		x.dirSet(li, d.st, bFwdGetS)
		x.send(x.dirNode(), int(d.owner), msg{typ: mFwdGetS, line: m.line,
			req: byte(src), reqID: m.reqID})
		return
	}
	x.dirSet(li, d.st, bFwdGetX)
	x.send(x.dirNode(), int(d.owner), msg{typ: mFwdGetX, line: m.line,
		req: byte(src), reqID: m.reqID})
}

// serveWireless handles wired requests landing on a wireless line.
func (x *ctx) serveWireless(src int, m msg) {
	li := int(m.line)
	d := &x.s.dir[li]
	if m.typ == mGetX && m.isSharer {
		// The upgrade raced the S->W flip: the requester's copy is
		// already wireless — tell it to resolve locally.
		x.send(x.dirNode(), src, msg{typ: mWDiscard, line: m.line, reqID: m.reqID})
		x.count("wdiscard")
		return
	}
	d.tReq, d.tReqType, d.tReqID = byte(src), m.typ, m.reqID
	x.dirSet(li, d.st, bWAddSharer)
	x.send(x.dirNode(), src, msg{typ: mWirUpgr, line: m.line, reqID: m.reqID,
		needAck: true, hasData: true, val: d.val, ver: d.ver})
}

// startSToW begins the wired->wireless regime shift: grant the
// requester a W copy over the wire, flip the surviving S sharers with
// a privileged broadcast, and commit once the tone channel is quiet.
func (x *ctx) startSToW(src int, m msg, newCount byte) {
	li := int(m.line)
	d := &x.s.dir[li]
	d.tReq, d.tReqType, d.tReqID, d.tNewCount = byte(src), m.typ, m.reqID, newCount
	d.tWaitTone = false
	x.dirSet(li, d.st, bSToW)
	x.s.wq = append(x.s.wq, wtx{kind: wBrUpgr, sender: noNode, line: m.line})
	x.send(x.dirNode(), src, msg{typ: mWirUpgr, line: m.line, reqID: m.reqID,
		hasData: true, val: d.val, ver: d.ver})
	x.count("stow-start")
}

// processOrDefer routes put notices around a busy directory entry.
func (x *ctx) processOrDefer(src int, m msg) {
	li := int(m.line)
	d := &x.s.dir[li]
	m.req = byte(src)
	if !d.exists {
		x.ackPut(li, src)
		return
	}
	if d.busy != bNone {
		if x.consumeBusyPut(li, src, m) {
			return
		}
		d.deferred = append(d.deferred, m)
		x.count("defer")
		return
	}
	x.processPut(li, src, m)
}

// consumeBusyPut absorbs a put that doubles as a W->S downgrade
// response: the wireless sharer evicted instead of downgrading.
func (x *ctx) consumeBusyPut(li, src int, m msg) bool {
	d := &x.s.dir[li]
	if d.busy != bWToS || d.tAckIDs&(1<<src) != 0 {
		return false
	}
	if m.typ != mPutW {
		if d.staleW&(1<<src) == 0 {
			// Uncounted stale notice: ack and swallow without touching
			// the ack arithmetic, as the stable-DW path would.
			x.ackPut(li, src)
			x.count("stale-put-dw")
			return true
		}
		d.staleW &^= 1 << src
	}
	d.tAcks--
	x.ackPut(li, src)
	x.maybeFinishWToS(li)
	return true
}

func (x *ctx) ackPut(li, src int) {
	x.send(x.dirNode(), src, msg{typ: mPutAck, line: byte(li)})
}

func (x *ctx) processPut(li, src int, m msg) {
	d := &x.s.dir[li]
	switch d.st {
	case dI:
		// stale put; nothing tracked
	case dS:
		if m.typ != mPutW {
			d.sharers &^= 1 << src
			if d.sharers == 0 {
				x.dirSet(li, dI, bNone)
			}
		}
	case dO:
		if byte(src) != d.owner {
			break // stale put from a displaced owner
		}
		switch m.typ {
		case mPutE:
			d.owner = noNode
			x.dirSet(li, dI, bNone)
		case mPutM:
			d.owner = noNode
			d.hasData, d.dirty, d.val, d.ver = true, true, m.val, m.ver
			x.dirSet(li, dI, bNone)
		}
	case dW:
		if m.typ != mPutW {
			if d.staleW&(1<<src) == 0 {
				// A wired-era notice from a node deposed before the
				// wireless epoch began: swallow it, the sender was
				// never counted.
				x.count("stale-put-dw")
				break
			}
			d.staleW &^= 1 << src
		}
		if d.wcount == 0 {
			x.failProto("put %s from %d would make the wireless sharer count negative", mtNames[m.typ], src)
			return
		}
		d.wcount--
		if int(d.wcount) <= x.cfg.MaxWiredSharers {
			x.startWToS(li)
		}
	}
	x.ackPut(li, src)
}

// startWToS begins the wireless->wired demotion: broadcast WirDwgr
// and wait for every surviving wireless sharer to ack (or evict).
func (x *ctx) startWToS(li int) {
	d := &x.s.dir[li]
	d.tAcks, d.tAckIDs = int8(d.wcount), 0
	x.dirSet(li, d.st, bWToS)
	x.s.wq = append(x.s.wq, wtx{kind: wDwgr, sender: noNode, line: byte(li)})
	x.count("wtos-start")
	if d.tAcks == 0 {
		x.maybeFinishWToS(li)
	}
}

func (x *ctx) maybeFinishWToS(li int) {
	d := &x.s.dir[li]
	if int8(popcount(d.tAckIDs)) < d.tAcks {
		return
	}
	// Every expected sharer answered (or evicted): cancel the
	// downgrade broadcast if it never made it to the air.
	for i := 0; i < len(x.s.wq); i++ {
		if w := x.s.wq[i]; w.kind == wDwgr && int(w.line) == li {
			x.removeWtx(i)
			break
		}
	}
	survivors := d.tAckIDs
	d.wcount = 0
	d.staleW = 0
	d.sharers = survivors
	clearTxn(d)
	x.dirSet(li, dS, bNone)
	if survivors == 0 {
		x.dirSet(li, dI, bNone)
	}
	x.writebackIfDirty(li)
	x.note(obs.EvWDowngrade, x.dirNode(), -1, byte(li), uint64(popcount(survivors)), 0)
	x.count("wtos-commit")
	x.drainDeferred(li)
}

func (x *ctx) processAck(src int, m msg) {
	li := int(m.line)
	d := &x.s.dir[li]
	if !d.exists || d.busy == bNone {
		x.failProto("ack %s from %d with no transaction", mtNames[m.typ], src)
		return
	}
	switch m.typ {
	case mInvAck:
		if d.busy != bInvAll && d.busy != bEvict {
			x.failProto("InvAck from %d during %s", src, dirFSMName(d))
			return
		}
		d.tAcks--
		if d.tAcks > 0 {
			return
		}
		if d.busy == bEvict {
			x.finishDirEvict(li)
		} else {
			x.finishInvAll(li)
		}
	case mCopyBack:
		if d.busy != bFwdGetS {
			x.failProto("CopyBack from %d during %s", src, dirFSMName(d))
			return
		}
		oldOwner, req := d.owner, d.tReq
		d.hasData, d.val, d.ver = true, m.val, m.ver
		if m.needAck {
			d.dirty = true
		}
		clearTxn(d)
		x.dirSet(li, dS, bNone)
		d.sharers = 1<<oldOwner | 1<<req
		d.owner = noNode
		x.drainDeferred(li)
	case mXferAck:
		if d.busy != bFwdGetX {
			x.failProto("XferAck from %d during %s", src, dirFSMName(d))
			return
		}
		req := d.tReq
		clearTxn(d)
		x.dirSet(li, dO, bNone)
		d.owner, d.ownerDty = req, true
		x.drainDeferred(li)
	case mRecallAck:
		if d.busy != bEvict {
			x.failProto("RecallAck from %d during %s", src, dirFSMName(d))
			return
		}
		if m.hasData {
			d.hasData, d.dirty, d.val, d.ver = true, true, m.val, m.ver
		}
		x.finishDirEvict(li)
	case mWirUpgrAck:
		if d.busy != bWAddSharer {
			x.failProto("WirUpgrAck from %d during %s", src, dirFSMName(d))
			return
		}
		clearTxn(d)
		x.dirSet(li, dW, bNone)
		d.wcount++
		x.drainDeferred(li)
	case mWirDwgrAck:
		if d.busy != bWToS {
			x.failProto("WirDwgrAck from %d during %s", src, dirFSMName(d))
			return
		}
		d.tAckIDs |= 1 << src
		x.maybeFinishWToS(li)
	}
}

func (x *ctx) processMemData(m msg) {
	li := int(m.line)
	d := &x.s.dir[li]
	if !d.exists || d.busy != bFetchMem {
		x.failProto("MemData without a fetch transaction")
		return
	}
	d.hasData, d.dirty, d.val, d.ver = true, false, m.val, m.ver
	req, reqType, reqID := int(d.tReq), d.tReqType, d.tReqID
	clearTxn(d)
	d.busy = bFetchMem // grantFromLLC validates the hop busy:fetch-mem -> DO
	x.grantFromLLC(li, req, reqType, reqID)
	x.drainDeferred(li)
}

func (x *ctx) writebackIfDirty(li int) {
	d := &x.s.dir[li]
	if d.dirty && d.hasData {
		x.send(x.dirNode(), x.mcNode(), msg{typ: mMemWrite, line: byte(li),
			hasData: true, val: d.val, ver: d.ver})
		d.dirty = false
	}
}

// drainDeferred replays puts absorbed while the entry was busy. Puts
// deferred again during the replay go to a fresh array, never into
// pending while it is read; when the replay defers none, the entry gets
// pending's array back.
func (x *ctx) drainDeferred(li int) {
	d := &x.s.dir[li]
	if len(d.deferred) == 0 {
		return
	}
	pending := d.deferred
	d.deferred = nil
	saved := x.event
	for i, m := range pending {
		if x.viol != nil {
			break
		}
		x.event = mtNames[m.typ]
		if x.s.dir[li].busy != bNone {
			if x.consumeBusyPut(li, int(m.req), m) {
				continue
			}
			dd := &x.s.dir[li]
			dd.deferred = append(append([]msg{m}, dd.deferred...), pending[i+1:]...)
			break
		}
		x.processPut(li, int(m.req), m)
	}
	x.event = saved
	if dd := &x.s.dir[li]; dd.deferred == nil {
		dd.deferred = pending[:0]
	}
}
