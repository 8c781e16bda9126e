package mcheck

import "repro/internal/obs"

// ---------- L1 wired delivery (coherence.L1.HandleWired) ----------

func (x *ctx) l1Deliver(id, src int, m msg) {
	li := int(m.line)
	pre := l1Names[x.line(id, li).st]
	switch m.typ {
	case mDataS, mDataE, mDataM, mDataOwnerS, mDataOwnerM, mWirUpgr:
		x.handleDataResponse(id, src, m)
	case mNACK:
		x.handleNACK(id, m)
	case mWDiscard:
		x.handleWDiscard(id, m)
	case mInv:
		x.handleInv(id, src, m)
	case mFwdGetS:
		x.handleFwdGetS(id, m)
	case mFwdGetX:
		x.handleFwdGetX(id, m)
	case mRecall:
		x.handleRecall(id, src, m)
	case mPutAck:
		x.handlePutAck(id, m)
	default:
		x.failProto("L1 %d received %s", id, mtNames[m.typ])
	}
	if x.viol == nil && l1Names[x.line(id, li).st] == pre {
		x.coverStable(x.ck.l1M, pre)
	}
}

// grantState maps a data-response type to the state it installs.
func grantState(typ byte) byte {
	switch typ {
	case mDataS, mDataOwnerS:
		return sS
	case mDataE:
		return sE
	case mDataM, mDataOwnerM:
		return sM
	case mWirUpgr:
		return sW
	}
	return sI
}

func (x *ctx) handleDataResponse(id, src int, m msg) {
	li := int(m.line)
	L := x.line(id, li)
	matches := L.pend && L.pReqID == m.reqID
	toneHeld := false
	var pKind, pVal byte
	var pInv bool
	if matches {
		toneHeld, pKind, pVal, pInv = L.pTone, L.pKind, L.pVal, L.pInv
		if toneHeld {
			L.pTone = false
			x.note(obs.EvToneLower, id, -1, byte(li), 0, 0)
		}
		x.clearPend(L)
		L.nonEvict = false
	}
	st := grantState(m.typ)
	wirelessGrant := m.typ == mWirUpgr
	if toneHeld && st == sS && !pInv {
		// The upgrade broadcast committed while our fill was in
		// flight and the directory counted us into the wireless
		// group: the granted S copy joins the wireless regime. An
		// invalidated (use-once) fill was explicitly uncounted and
		// must not install W; the use-once path consumes it below.
		st, wirelessGrant = sW, true
		x.count("tone-fill")
	}
	if !matches && st == sS {
		return // stale shared grant: drop without installing
	}
	if !matches && wirelessGrant {
		// The upgrade broadcast already flipped this core into the
		// wireless regime (or it has since decayed out of it); the
		// wired grant's payload is stale. Ack the sharer slot if the
		// directory is counting, then drop.
		if m.needAck {
			x.send(id, x.dirNode(), msg{typ: mWirUpgrAck, line: m.line})
		}
		x.count("stale-wirupgr")
		return
	}
	// Unmatched ownership grants (the request they answer was abandoned,
	// e.g. resolved locally by a BrWirUpgr and since re-issued) must
	// still install: the directory has already committed this core as
	// owner, and dropping them would wedge the entry. They complete
	// nothing; if another request of ours is outstanding, the copy is
	// pinned so its eviction notice cannot trail that request.
	if matches && st == sS && pInv {
		// Use-once: the copy was invalidated while pending; serve the
		// load from the granted words without installing.
		x.count("use-once")
		if pKind != opLoad {
			x.violate("integrity", "core %d completed a store from a use-once grant on line %d", id, li)
			return
		}
		x.observeRead(id, li, m.val, m.ver)
		return
	}
	redispatch := false
	var redisVal byte
	if st != sW {
		if i := x.queuedUpd(id, li); i >= 0 {
			// A queued wireless write raced a wired install: cancel it
			// and re-dispatch after the install settles.
			w := x.removeWtx(i)
			redispatch, redisVal = true, w.val
		}
	}
	// Install (in place or fresh).
	x.l1Set(id, li, st)
	L = x.line(id, li)
	L.val, L.ver, L.dirty, L.upd = m.val, m.ver, false, 0
	x.note(obs.EvL1Fill, id, src, byte(li), uint64(m.typ), 0)
	if !matches {
		x.count("stale-own-install")
		if L.pend {
			L.nonEvict = true
		}
	}
	if m.typ == mDataOwnerM {
		x.send(id, x.dirNode(), msg{typ: mXferAck, line: m.line})
	}
	if m.typ == mWirUpgr && m.needAck {
		x.send(id, x.dirNode(), msg{typ: mWirUpgrAck, line: m.line})
	}
	if matches {
		if wirelessGrant {
			if pKind == opLoad {
				x.observeRead(id, li, L.val, L.ver)
			} else {
				x.wirelessStore(id, li, pVal)
			}
		} else if pKind == opLoad {
			x.observeRead(id, li, L.val, L.ver)
		} else {
			// Wired store grant: the write serializes on install.
			if L.ver != x.s.curVer[li] {
				x.violate("integrity", "core %d installed store grant for line %d at version %d, current is %d (lost update)", id, li, L.ver, x.s.curVer[li])
				return
			}
			x.l1Set(id, li, sM)
			L = x.line(id, li)
			L.val, L.ver, L.dirty = pVal, x.serializeWrite(li, pVal), true
			*x.seen(id, li) = L.ver
		}
	}
	if redispatch && x.viol == nil {
		saved := x.event
		x.event = "CoreStore"
		x.access(id, li, opStore, redisVal)
		x.event = saved
	}
}

// satisfies reports whether the resident state already serves the op.
func satisfies(st, op byte) bool {
	if op == opLoad {
		return st != sI
	}
	return st == sE || st == sM || st == sW
}

func (x *ctx) handleNACK(id int, m msg) {
	li := int(m.line)
	L := x.line(id, li)
	if !L.pend || L.pReqID != m.reqID {
		return
	}
	if L.pTone {
		L.pTone = false
		x.note(obs.EvToneLower, id, -1, byte(li), 0, 0)
	}
	if L.st != sI && satisfies(L.st, L.pKind) {
		// The line arrived by other means while we were bouncing:
		// absorb the retry into a plain access.
		op, val := L.pKind, L.pVal
		x.clearPend(L)
		L.nonEvict = false
		saved := x.event
		x.event = coreEvent(op)
		x.access(id, li, op, val)
		x.event = saved
		return
	}
	isSharer := L.st == sS
	L.pShare = isSharer
	L.nonEvict = isSharer
	L.pInv = false
	L.pReqID = x.nextReqID(id, li)
	typ := byte(mGetS)
	if L.pKind == opStore {
		typ = mGetX
	}
	x.count("nack-retry")
	x.send(id, x.dirNode(), msg{typ: typ, line: m.line, req: byte(id),
		reqID: L.pReqID, isSharer: isSharer})
}

func (x *ctx) handleWDiscard(id int, m msg) {
	li := int(m.line)
	L := x.line(id, li)
	if !L.pend || L.pReqID != m.reqID {
		return
	}
	if L.pTone {
		L.pTone = false
		x.note(obs.EvToneLower, id, -1, byte(li), 0, 0)
	}
	if L.st != sI && satisfies(L.st, L.pKind) {
		op, val := L.pKind, L.pVal
		x.clearPend(L)
		L.nonEvict = false
		saved := x.event
		x.event = coreEvent(op)
		x.access(id, li, op, val)
		x.event = saved
		return
	}
	// Still unresolved: retry without the upgrade hint.
	L.pShare = false
	L.nonEvict = false
	L.pReqID = x.nextReqID(id, li)
	typ := byte(mGetS)
	if L.pKind == opStore {
		typ = mGetX
	}
	x.send(id, x.dirNode(), msg{typ: typ, line: m.line, req: byte(id), reqID: L.pReqID})
}

func (x *ctx) handleInv(id, src int, m msg) {
	li := int(m.line)
	L := x.line(id, li)
	if L.pend {
		L.pInv = true
	}
	switch L.st {
	case sS:
		x.invalidateL1(id, li)
	case sE, sM, sW:
		x.failProto("Inv delivered to core %d holding line %d in %s", id, li, l1Names[L.st])
		return
	}
	x.send(id, src, msg{typ: mInvAck, line: m.line})
}

// ownerCopy fetches the line's words for a forward, from the cache or
// the victim buffer.
func (x *ctx) ownerCopy(id, li int) (val, ver byte, dirty, fromCache, ok bool) {
	L := x.line(id, li)
	if L.st != sI {
		return L.val, L.ver, L.dirty, true, true
	}
	if L.vic {
		x.count("victim-serve")
		return L.vicVal, L.vicVer, L.vicDirty, false, true
	}
	return 0, 0, false, false, false
}

func (x *ctx) handleFwdGetS(id int, m msg) {
	li := int(m.line)
	val, ver, dirty, fromCache, ok := x.ownerCopy(id, li)
	if !ok {
		x.failProto("FwdGetS reached core %d with neither line %d nor its victim", id, li)
		return
	}
	if fromCache {
		x.l1Set(id, li, sS)
		x.line(id, li).dirty = false
	}
	x.send(id, int(m.req), msg{typ: mDataOwnerS, line: m.line, req: m.req,
		reqID: m.reqID, hasData: true, val: val, ver: ver})
	x.send(id, x.dirNode(), msg{typ: mCopyBack, line: m.line, req: m.req,
		needAck: dirty, hasData: true, val: val, ver: ver})
}

func (x *ctx) handleFwdGetX(id int, m msg) {
	li := int(m.line)
	val, ver, _, fromCache, ok := x.ownerCopy(id, li)
	if !ok {
		x.failProto("FwdGetX reached core %d with neither line %d nor its victim", id, li)
		return
	}
	if fromCache {
		x.invalidateL1(id, li)
	}
	x.send(id, int(m.req), msg{typ: mDataOwnerM, line: m.line, req: m.req,
		reqID: m.reqID, hasData: true, val: val, ver: ver})
}

func (x *ctx) handleRecall(id, src int, m msg) {
	li := int(m.line)
	L := x.line(id, li)
	switch {
	case L.st != sI:
		val, ver, dirty := L.val, L.ver, L.dirty
		x.invalidateL1(id, li)
		x.send(id, src, msg{typ: mRecallAck, line: m.line, hasData: dirty, val: val, ver: ver})
	case L.vic:
		val, ver, dirty := L.vicVal, L.vicVer, L.vicDirty
		L.vic, L.vicVal, L.vicVer, L.vicDirty = false, 0, 0, false
		x.send(id, src, msg{typ: mRecallAck, line: m.line, hasData: dirty, val: val, ver: ver})
	default:
		x.send(id, src, msg{typ: mRecallAck, line: m.line})
	}
}

func (x *ctx) handlePutAck(id int, m msg) {
	L := x.line(id, int(m.line))
	L.vic, L.vicVal, L.vicVer, L.vicDirty = false, 0, 0, false
}

// ---------- wireless channel ----------

// air serializes one pending wireless transmission: the broadcast is
// atomic — every node sees it in the same global order.
func (x *ctx) air(act action) {
	idx := -1
	for i, w := range x.s.wq {
		if w.kind == act.a && w.sender == act.b && w.line == act.c && w.val == act.d {
			idx = i
			break
		}
	}
	if idx < 0 {
		x.failProto("air action for a transmission not in the queue")
		return
	}
	w := x.removeWtx(idx)
	li := int(w.line)
	switch w.kind {
	case wUpd:
		if x.jammed(li) {
			// The directory is reconfiguring the line: the jam tone
			// aborts the transmission and the writer retries.
			x.note(obs.EvJam, int(w.sender), x.dirNode(), w.line, 0, 0)
			x.count("jam")
			x.wirelessTxAborted(int(w.sender), li, w.val)
			return
		}
		x.serializeWirUpd(w)
	case wBrUpgr:
		x.serializeBrWirUpgr(li)
	case wDwgr:
		x.serializeWirDwgr(li)
	case wInv:
		x.serializeWirInv(li)
	}
}

// corrupt is the fault-mode transition: the wireless store is
// corrupted in flight (internal/fault's wireless-corruption class).
// The writer falls back to a wired retry and the home counts a
// strike toward W->S demotion. Privileged broadcasts retry until
// delivered, so only wUpd entries can be corrupted.
func (x *ctx) corrupt(act action) {
	idx := -1
	for i, w := range x.s.wq {
		if w.kind == wUpd && w.sender == act.b && w.line == act.c && w.val == act.d {
			idx = i
			break
		}
	}
	if idx < 0 {
		x.failProto("corrupt action for a transmission not in the queue")
		return
	}
	w := x.removeWtx(idx)
	li := int(w.line)
	x.note(obs.EvTxCorrupt, int(w.sender), -1, w.line, 0, 0)
	x.count("fault")
	x.noteWirelessFault(li)
	if x.viol == nil {
		x.wirelessTxAborted(int(w.sender), li, w.val)
	}
}

// wirelessTxAborted re-dispatches the writer's store after a jammed
// or corrupted transmission.
func (x *ctx) wirelessTxAborted(sender, li int, val byte) {
	saved := x.event
	x.event = "CoreStore"
	x.access(sender, li, opStore, val)
	x.event = saved
}

// noteWirelessFault mirrors Home.NoteWirelessFault: count a strike;
// demote W->S once the line has misbehaved FaultDemoteAfter times.
func (x *ctx) noteWirelessFault(li int) {
	d := &x.s.dir[li]
	if !d.exists || d.st != dW {
		return
	}
	if int(d.faultF) < x.cfg.FaultDemoteAfter {
		d.faultF++
	}
	if d.busy != bNone || int(d.faultF) < x.cfg.FaultDemoteAfter {
		return
	}
	d.faultF = 0
	x.note(obs.EvWFaultDemote, x.dirNode(), -1, byte(li), 0, 0)
	x.count("fault-demote")
	saved := x.event
	x.event = "WirelessFault"
	x.startWToS(li)
	x.event = saved
}

// serializeWirUpd delivers an unprivileged wireless store: every
// remote W copy merges the update, the home's LLC copy merges, and
// the writer's own copy commits.
func (x *ctx) serializeWirUpd(w wtx) {
	li := int(w.line)
	sender := int(w.sender)
	ver := x.serializeWrite(li, w.val)
	x.note(obs.EvWirUpd, sender, -1, w.line, uint64(w.val), uint64(ver))
	x.count("air:WirUpd")
	saved := x.event
	x.event = "WirUpd"
	for c := 0; c < x.cfg.L1s && x.viol == nil; c++ {
		if c != sender {
			x.handleRemoteUpdate(c, li, w.val, ver)
		}
	}
	if x.viol == nil {
		x.homeWirelessMerge(li, w.val, ver)
	}
	x.event = saved
	if x.viol != nil {
		return
	}
	// Writer-side completion: the store is globally ordered.
	L := x.line(sender, li)
	if L.st == sW {
		L.val, L.ver, L.upd = w.val, ver, 0
	}
	*x.seen(sender, li) = ver
}

func (x *ctx) handleRemoteUpdate(c, li int, val, ver byte) {
	L := x.line(c, li)
	pre := l1Names[L.st]
	defer func() {
		if x.viol == nil && l1Names[x.line(c, li).st] == pre {
			x.coverStable(x.ck.l1M, pre)
		}
	}()
	if L.st != sW {
		return
	}
	L.val, L.ver = val, ver
	if int(L.upd) < x.cfg.UpdateCountMax {
		L.upd++
	}
	if x.queuedUpd(c, li) >= 0 {
		return // our own write is still in flight; no decay
	}
	if int(L.upd) < x.cfg.UpdateCountMax {
		return
	}
	if L.pend {
		return
	}
	// Update-count decay: self-invalidate and release the sharer slot.
	x.note(obs.EvWDecay, c, -1, byte(li), 0, 0)
	x.count("decay")
	x.invalidateL1(c, li)
	x.send(c, x.dirNode(), msg{typ: mPutW, line: byte(li)})
}

// homeWirelessMerge is Home.HandleWireless for a WirUpd.
func (x *ctx) homeWirelessMerge(li int, val, ver byte) {
	d := &x.s.dir[li]
	if !d.exists {
		return
	}
	if d.st != dW {
		x.failProto("WirUpd serialized while the directory holds line %d in %s", li, dirFSMName(d))
		return
	}
	d.val, d.ver, d.dirty, d.hasData = val, ver, true, true
	d.faultF = 0
	x.coverStable(x.ck.dirM, dirNames[dW])
}

// serializeBrWirUpgr delivers the privileged S->W upgrade broadcast:
// surviving S sharers flip to W; cores with a request in flight raise
// the tone so the directory holds the commit.
func (x *ctx) serializeBrWirUpgr(li int) {
	x.count("air:BrWirUpgr")
	saved := x.event
	x.event = "BrWirUpgr"
	for c := 0; c < x.cfg.L1s && x.viol == nil; c++ {
		x.handleBrWirUpgr(c, li)
	}
	x.event = saved
	if x.viol != nil {
		return
	}
	d := &x.s.dir[li]
	if d.busy != bSToW {
		x.failProto("BrWirUpgr serialized with the directory in %s", dirFSMName(d))
		return
	}
	d.tWaitTone = true
}

func (x *ctx) handleBrWirUpgr(c, li int) {
	L := x.line(c, li)
	pre := l1Names[L.st]
	defer func() {
		if x.viol == nil && l1Names[x.line(c, li).st] == pre {
			x.coverStable(x.ck.l1M, pre)
		}
	}()
	if L.st == sS {
		x.l1Set(c, li, sW)
		L = x.line(c, li)
		L.upd = 0
		if L.pend {
			// The pending upgrade resolves locally in the new regime.
			pKind, pVal := L.pKind, L.pVal
			if L.pTone {
				L.pTone = false
				x.note(obs.EvToneLower, c, -1, byte(li), 0, 0)
			}
			x.clearPend(L)
			L.nonEvict = false
			if pKind == opStore {
				x.wirelessStore(c, li, pVal)
			} else {
				x.observeRead(c, li, L.val, L.ver)
			}
		}
		return
	}
	if L.pend && !L.pTone {
		L.pTone = true
		x.note(obs.EvToneRaise, c, -1, byte(li), 0, 0)
		x.count("tone")
	}
}

// toneCommit finishes the S->W upgrade once the tone channel is
// quiet: the directory commits DW and adopts the new sharer count.
func (x *ctx) toneCommit(li int) {
	d := &x.s.dir[li]
	if d.busy != bSToW || !d.tWaitTone || !x.toneQuiet() {
		x.failProto("tone commit without a quiet tone channel and a waiting upgrade")
		return
	}
	x.event = mtNames[d.tReqType]
	newCount := d.tNewCount
	clearTxn(d)
	x.dirSet(li, dW, bNone)
	// Snapshot the identities being collapsed into the count: a wired
	// eviction notice may only decrement wcount if its sender is here
	// (per-source FIFO makes anything else provably stale).
	d.staleW = d.sharers
	d.sharers = 0
	d.wcount = newCount
	d.faultF = 0
	x.note(obs.EvWUpgrade, x.dirNode(), -1, byte(li), uint64(newCount), 0)
	x.count("stow-commit")
	x.drainDeferred(li)
}

// serializeWirDwgr delivers the privileged W->S downgrade broadcast:
// every wireless sharer drops to S and acks its identity to the home.
func (x *ctx) serializeWirDwgr(li int) {
	x.count("air:WirDwgr")
	saved := x.event
	x.event = "WirDwgr"
	type redis struct {
		core int
		val  byte
	}
	var redispatch []redis
	for c := 0; c < x.cfg.L1s && x.viol == nil; c++ {
		L := x.line(c, li)
		pre := l1Names[L.st]
		if i := x.queuedUpd(c, li); i >= 0 {
			w := x.removeWtx(i)
			redispatch = append(redispatch, redis{c, w.val})
		}
		if L.st == sW {
			x.l1Set(c, li, sS)
			x.line(c, li).dirty = false
			x.send(c, x.dirNode(), msg{typ: mWirDwgrAck, line: byte(li)})
		} else if x.viol == nil && l1Names[x.line(c, li).st] == pre {
			x.coverStable(x.ck.l1M, pre)
		}
	}
	x.event = saved
	for _, r := range redispatch {
		if x.viol != nil {
			return
		}
		x.wirelessTxAborted(r.core, li, r.val)
	}
}

// serializeWirInv delivers the privileged eviction invalidate: every
// wireless copy drops, then the home finishes its eviction.
func (x *ctx) serializeWirInv(li int) {
	x.count("air:WirInv")
	saved := x.event
	x.event = "WirInv"
	type redis struct {
		core int
		val  byte
	}
	var redispatch []redis
	for c := 0; c < x.cfg.L1s && x.viol == nil; c++ {
		L := x.line(c, li)
		pre := l1Names[L.st]
		if i := x.queuedUpd(c, li); i >= 0 {
			w := x.removeWtx(i)
			redispatch = append(redispatch, redis{c, w.val})
			x.invalidateL1(c, li)
			continue
		}
		if L.st == sW {
			x.invalidateL1(c, li)
		} else if x.viol == nil && l1Names[x.line(c, li).st] == pre {
			x.coverStable(x.ck.l1M, pre)
		}
	}
	x.event = saved
	if x.viol == nil {
		d := &x.s.dir[li]
		if d.busy != bEvict {
			x.failProto("WirInv serialized with the directory in %s", dirFSMName(d))
		} else {
			x.event = "Evict"
			x.finishDirEvict(li)
		}
	}
	for _, r := range redispatch {
		if x.viol != nil {
			return
		}
		x.wirelessTxAborted(r.core, li, r.val)
	}
}
