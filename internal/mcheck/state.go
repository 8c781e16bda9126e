package mcheck

import (
	"bytes"
	"slices"
)

// L1 line states.
const (
	sI byte = iota
	sS
	sE
	sM
	sW
)

var l1Names = [...]string{sI: "I", sS: "S", sE: "E", sM: "M", sW: "W"}

// Directory stable states.
const (
	dI byte = iota
	dS
	dO
	dW
)

var dirNames = [...]string{dI: "DI", dS: "DS", dO: "DO", dW: "DW"}

// Directory busy kinds (bNone = stable).
const (
	bNone byte = iota
	bFetchMem
	bFwdGetS
	bFwdGetX
	bInvAll
	bSToW
	bWAddSharer
	bWToS
	bEvict
)

var busyNames = [...]string{
	bFetchMem:   "busy:fetch-mem",
	bFwdGetS:    "busy:fwd-gets",
	bFwdGetX:    "busy:fwd-getx",
	bInvAll:     "busy:inv-all",
	bSToW:       "busy:s-to-w",
	bWAddSharer: "busy:w-add-sharer",
	bWToS:       "busy:w-to-s",
	bEvict:      "busy:evict",
}

// Wired message types, mirroring coherence.MsgType names.
const (
	mGetS byte = iota
	mGetX
	mDataS
	mDataE
	mDataM
	mNACK
	mWirUpgr
	mInv
	mFwdGetS
	mFwdGetX
	mRecall
	mInvAck
	mCopyBack
	mXferAck
	mRecallAck
	mPutS
	mPutE
	mPutM
	mPutW
	mWirUpgrAck
	mWirDwgrAck
	mPutAck
	mWDiscard
	mDataOwnerS
	mDataOwnerM
	mMemRead
	mMemData
	mMemWrite
)

var mtNames = [...]string{
	mGetS: "GetS", mGetX: "GetX", mDataS: "DataS", mDataE: "DataE",
	mDataM: "DataM", mNACK: "NACK", mWirUpgr: "WirUpgr", mInv: "Inv",
	mFwdGetS: "FwdGetS", mFwdGetX: "FwdGetX", mRecall: "Recall",
	mInvAck: "InvAck", mCopyBack: "CopyBack", mXferAck: "XferAck",
	mRecallAck: "RecallAck", mPutS: "PutS", mPutE: "PutE", mPutM: "PutM",
	mPutW: "PutW", mWirUpgrAck: "WirUpgrAck", mWirDwgrAck: "WirDwgrAck",
	mPutAck: "PutAck", mWDiscard: "WDiscard", mDataOwnerS: "DataOwnerS",
	mDataOwnerM: "DataOwnerM", mMemRead: "MemRead", mMemData: "MemData",
	mMemWrite: "MemWrite",
}

// Pending-operation kinds.
const (
	opLoad byte = iota
	opStore
)

// Wireless transmission kinds, in serialization-priority-free order.
const (
	wUpd    byte = iota // unprivileged fine-grain store (WirUpd)
	wBrUpgr             // privileged S->W upgrade broadcast (BrWirUpgr)
	wDwgr               // privileged W->S downgrade (WirDwgr)
	wInv                // privileged eviction invalidate (WirInv)
)

var wNames = [...]string{wUpd: "WirUpd", wBrUpgr: "BrWirUpgr", wDwgr: "WirDwgr", wInv: "WirInv"}

const noNode = byte(0xFF)

// msg is one wired message. src is implied by the channel it sits in.
type msg struct {
	typ      byte
	line     byte
	req      byte // requester identity carried by GetS/GetX/Fwd*/DataOwner*
	reqID    byte
	isSharer bool // GetX upgrade hint
	needAck  bool // WirUpgr tone request / CopyBack dirty flag
	hasData  bool
	val, ver byte
}

// wtx is one pending wireless transmission (an un-serialized
// broadcast). Order in the queue is immaterial — any entry may win
// the channel — so the slice is kept canonically sorted.
type wtx struct {
	kind   byte
	sender byte // L1 id, or noNode for the directory
	line   byte
	val    byte // wUpd payload (the store's value)
}

// l1Line is one cache line in one L1, plus the per-line slice of the
// core's architectural state the invariants need.
type l1Line struct {
	st       byte
	val, ver byte
	dirty    bool
	upd      byte // wireless UpdateCount toward decay
	nonEvict bool // pinned by an upgrade miss in flight

	// victim buffer (held from eviction until PutAck)
	vic      bool
	vicVal   byte
	vicVer   byte
	vicDirty bool

	// pending wired request
	pend   bool
	pKind  byte // opLoad / opStore
	pVal   byte // store value
	pShare bool // isSharer upgrade hint at issue
	pTone  bool // holding the wireless tone (ToneAck)
	pInv   bool // invalidated while pending (use-once grant)
	pReqID byte
}

// dirLine is the directory/LLC entry for one line.
type dirLine struct {
	exists   bool
	st       byte
	busy     byte
	sharers  uint16 // wired sharer bitmask (DS)
	owner    byte   // DO owner, else noNode
	ownerDty bool
	wcount   byte   // DW wireless sharer count
	staleW   uint16 // wired-era pointers collapsed at the S->W commit (DW)
	hasData  bool
	dirty    bool
	val, ver byte
	faultF   byte // wireless fault strikes toward demotion

	// in-flight transaction bookkeeping
	tReq      byte // requester L1, else noNode
	tReqType  byte // mGetS / mGetX
	tReqID    byte
	tAcks     int8   // acks still outstanding
	tAckIDs   uint16 // WirDwgrAck responder bitmask (busy:w-to-s)
	tNewCount byte   // wireless sharer count at S->W commit
	tWaitTone bool   // upgrade broadcast done, waiting for tones to clear

	deferred []msg // puts absorbed while busy
}

// state is one global model state.
type state struct {
	l1     []l1Line // [core*Lines+line]
	dir    []dirLine
	memVal []byte
	memVer []byte
	curVer []byte  // per-line latest serialized version (ghost)
	curVal []byte  // value written by the latest serialized version (ghost)
	seen   []byte  // [core*Lines+line]: newest version the core observed (ghost)
	chans  [][]msg // [(src*(L1s+2))+dst] FIFO wired channels
	wq     []wtx   // pending wireless transmissions, kept sorted
	ops    byte    // remaining operation budget (issues + evictions)
}

func newState(cfg Config) *state {
	n := cfg.L1s
	s := &state{
		l1:     make([]l1Line, n*cfg.Lines),
		dir:    make([]dirLine, cfg.Lines),
		memVal: make([]byte, cfg.Lines),
		memVer: make([]byte, cfg.Lines),
		curVer: make([]byte, cfg.Lines),
		curVal: make([]byte, cfg.Lines),
		seen:   make([]byte, n*cfg.Lines),
		chans:  make([][]msg, (n+2)*(n+2)),
		ops:    byte(cfg.OpBudget),
	}
	for i := range s.l1 {
		s.l1[i].st = sI
	}
	for i := range s.dir {
		s.dir[i] = dirLine{owner: noNode, tReq: noNode}
	}
	return s
}

// grow returns s resized to n elements, reusing its capacity when it
// suffices. Elements kept from s hold whatever they held before.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// copyInto overwrites dst with a deep copy of s, reusing dst's
// existing slice capacity wherever it suffices. dst must not alias s.
func (s *state) copyInto(dst *state) {
	dst.l1 = append(dst.l1[:0], s.l1...)
	dst.memVal = append(dst.memVal[:0], s.memVal...)
	dst.memVer = append(dst.memVer[:0], s.memVer...)
	dst.curVer = append(dst.curVer[:0], s.curVer...)
	dst.curVal = append(dst.curVal[:0], s.curVal...)
	dst.seen = append(dst.seen[:0], s.seen...)
	dst.wq = append(dst.wq[:0], s.wq...)
	dst.ops = s.ops
	dst.dir = grow(dst.dir, len(s.dir))
	for i := range s.dir {
		def := dst.dir[i].deferred
		dst.dir[i] = s.dir[i]
		dst.dir[i].deferred = append(def[:0], s.dir[i].deferred...)
	}
	dst.chans = grow(dst.chans, len(s.chans))
	for i := range s.chans {
		dst.chans[i] = append(dst.chans[i][:0], s.chans[i]...)
	}
}

// clone returns a deep copy of s drawn from the Checker's free list.
func (ck *Checker) clone(s *state) *state {
	c := ck.free.Get()
	s.copyInto(c)
	return c
}

// wtxCmp orders wireless transmissions by every field, so entries it
// ranks equal are identical and an unstable sort is deterministic.
func wtxCmp(a, b wtx) int {
	if a.kind != b.kind {
		return int(a.kind) - int(b.kind)
	}
	if a.sender != b.sender {
		return int(a.sender) - int(b.sender)
	}
	if a.line != b.line {
		return int(a.line) - int(b.line)
	}
	return int(a.val) - int(b.val)
}

// normalize restores the canonical invariants a state carries between
// transitions: the wireless queue is sorted (it is a set).
func (s *state) normalize() { slices.SortFunc(s.wq, wtxCmp) }

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func appendMsg(buf []byte, m msg) []byte {
	return append(buf, m.typ, m.line, m.req, m.reqID,
		boolByte(m.isSharer)|boolByte(m.needAck)<<1|boolByte(m.hasData)<<2,
		m.val, m.ver)
}

// encode appends the state's deterministic byte encoding to buf and
// returns the extended buffer. There is no free-running request-id
// counter to exclude: fresh IDs are allocated as max(outstanding)+1
// per (core, line), which composes with the order-preserving
// renormalization below. decode is its inverse.
func (s *state) encode(buf []byte) []byte {
	for i := range s.l1 {
		L := &s.l1[i]
		buf = append(buf, L.st, L.val, L.ver,
			boolByte(L.dirty)|boolByte(L.nonEvict)<<1|boolByte(L.vic)<<2|boolByte(L.vicDirty)<<3,
			L.upd, L.vicVal, L.vicVer,
			boolByte(L.pend)|boolByte(L.pShare)<<1|boolByte(L.pTone)<<2|boolByte(L.pInv)<<3,
			L.pKind, L.pVal, L.pReqID, s.seen[i])
	}
	for i := range s.dir {
		d := &s.dir[i]
		buf = append(buf, boolByte(d.exists), d.st, d.busy,
			byte(d.sharers), byte(d.sharers>>8), d.owner,
			boolByte(d.ownerDty)|boolByte(d.hasData)<<1|boolByte(d.dirty)<<2|boolByte(d.tWaitTone)<<3,
			d.wcount, byte(d.staleW), byte(d.staleW>>8), d.val, d.ver, d.faultF,
			d.tReq, d.tReqType, d.tReqID, byte(d.tAcks),
			byte(d.tAckIDs), byte(d.tAckIDs>>8), d.tNewCount,
			byte(len(d.deferred)))
		for _, m := range d.deferred {
			buf = appendMsg(buf, m)
		}
	}
	buf = append(buf, s.memVal...)
	buf = append(buf, s.memVer...)
	buf = append(buf, s.curVer...)
	buf = append(buf, s.curVal...)
	for _, ch := range s.chans {
		buf = append(buf, byte(len(ch)))
		for _, m := range ch {
			buf = appendMsg(buf, m)
		}
	}
	buf = append(buf, byte(len(s.wq)))
	for _, w := range s.wq {
		buf = append(buf, w.kind, w.sender, w.line, w.val)
	}
	return append(buf, s.ops)
}

// keyReader walks an encoded state byte by byte.
type keyReader struct {
	key string
	off int
}

func (r *keyReader) next() byte {
	b := r.key[r.off]
	r.off++
	return b
}

func (r *keyReader) u16() uint16 {
	lo := r.next()
	return uint16(lo) | uint16(r.next())<<8
}

// bytes overwrites dst with the next n bytes.
func (r *keyReader) bytes(dst []byte, n int) []byte {
	dst = append(dst[:0], r.key[r.off:r.off+n]...)
	r.off += n
	return dst
}

func (r *keyReader) msg() msg {
	m := msg{typ: r.next(), line: r.next(), req: r.next(), reqID: r.next()}
	f := r.next()
	m.isSharer, m.needAck, m.hasData = f&1 != 0, f&2 != 0, f&4 != 0
	m.val, m.ver = r.next(), r.next()
	return m
}

// decode overwrites s with the state whose encoding is key, reusing
// s's slice capacity. It is the inverse of encode: every field encode
// writes is restored, so a dequeued frontier key becomes the state it
// was encoded from.
func (s *state) decode(cfg Config, key string) {
	r := keyReader{key: key}
	n := cfg.L1s
	s.l1 = grow(s.l1, n*cfg.Lines)
	s.seen = grow(s.seen, n*cfg.Lines)
	for i := range s.l1 {
		L := &s.l1[i]
		L.st, L.val, L.ver = r.next(), r.next(), r.next()
		f := r.next()
		L.dirty, L.nonEvict, L.vic, L.vicDirty = f&1 != 0, f&2 != 0, f&4 != 0, f&8 != 0
		L.upd, L.vicVal, L.vicVer = r.next(), r.next(), r.next()
		f = r.next()
		L.pend, L.pShare, L.pTone, L.pInv = f&1 != 0, f&2 != 0, f&4 != 0, f&8 != 0
		L.pKind, L.pVal, L.pReqID = r.next(), r.next(), r.next()
		s.seen[i] = r.next()
	}
	s.dir = grow(s.dir, cfg.Lines)
	for i := range s.dir {
		d := &s.dir[i]
		d.exists, d.st, d.busy = r.next() != 0, r.next(), r.next()
		d.sharers, d.owner = r.u16(), r.next()
		f := r.next()
		d.ownerDty, d.hasData, d.dirty, d.tWaitTone = f&1 != 0, f&2 != 0, f&4 != 0, f&8 != 0
		d.wcount, d.staleW = r.next(), r.u16()
		d.val, d.ver, d.faultF = r.next(), r.next(), r.next()
		d.tReq, d.tReqType, d.tReqID, d.tAcks = r.next(), r.next(), r.next(), int8(r.next())
		d.tAckIDs, d.tNewCount = r.u16(), r.next()
		d.deferred = d.deferred[:0]
		for k := r.next(); k > 0; k-- {
			d.deferred = append(d.deferred, r.msg())
		}
	}
	s.memVal, s.memVer = r.bytes(s.memVal, cfg.Lines), r.bytes(s.memVer, cfg.Lines)
	s.curVer, s.curVal = r.bytes(s.curVer, cfg.Lines), r.bytes(s.curVal, cfg.Lines)
	s.chans = grow(s.chans, (n+2)*(n+2))
	for i := range s.chans {
		ch := s.chans[i][:0]
		for k := r.next(); k > 0; k-- {
			ch = append(ch, r.msg())
		}
		s.chans[i] = ch
	}
	s.wq = s.wq[:0]
	for k := r.next(); k > 0; k-- {
		s.wq = append(s.wq, wtx{kind: r.next(), sender: r.next(), line: r.next(), val: r.next()})
	}
	s.ops = r.next()
}

// chIdx addresses the directed channel src -> dst.
func chIdx(cfg Config, src, dst int) int { return src*(cfg.L1s+2) + dst }

// permuteInto writes into dst the state with L1 identities remapped by
// perm (core i becomes perm[i]). Directory and memory-controller node
// ids are fixed points. dst is fully overwritten (capacity reused) and
// must not alias s.
func (s *state) permuteInto(cfg Config, perm []int, dst *state) {
	n := cfg.L1s
	nodes := n + 2
	mapNode := func(b byte) byte {
		if int(b) < n {
			return byte(perm[b])
		}
		return b // dir, MC, noNode
	}
	mapMask := func(m uint16) uint16 {
		var out uint16
		for i := 0; i < n; i++ {
			if m&(1<<i) != 0 {
				out |= 1 << perm[i]
			}
		}
		return out
	}
	mapMsg := func(m msg) msg {
		m.req = mapNode(m.req)
		return m
	}
	dst.memVal = append(dst.memVal[:0], s.memVal...)
	dst.memVer = append(dst.memVer[:0], s.memVer...)
	dst.curVer = append(dst.curVer[:0], s.curVer...)
	dst.curVal = append(dst.curVal[:0], s.curVal...)
	dst.ops = s.ops
	dst.l1 = grow(dst.l1, len(s.l1))
	dst.seen = grow(dst.seen, len(s.seen))
	for c := 0; c < n; c++ {
		for ln := 0; ln < cfg.Lines; ln++ {
			dst.l1[perm[c]*cfg.Lines+ln] = s.l1[c*cfg.Lines+ln]
			dst.seen[perm[c]*cfg.Lines+ln] = s.seen[c*cfg.Lines+ln]
		}
	}
	dst.dir = grow(dst.dir, len(s.dir))
	for i := range s.dir {
		def := dst.dir[i].deferred
		dst.dir[i] = s.dir[i]
		d := &dst.dir[i]
		d.deferred = append(def[:0], s.dir[i].deferred...)
		d.sharers = mapMask(d.sharers)
		d.staleW = mapMask(d.staleW)
		d.owner = mapNode(d.owner)
		d.tReq = mapNode(d.tReq)
		d.tAckIDs = mapMask(d.tAckIDs)
		for j := range d.deferred {
			d.deferred[j] = mapMsg(d.deferred[j])
		}
	}
	dst.chans = grow(dst.chans, len(s.chans))
	for a := 0; a < nodes; a++ {
		for b := 0; b < nodes; b++ {
			src, dst2 := a, b
			if a < n {
				src = perm[a]
			}
			if b < n {
				dst2 = perm[b]
			}
			ch := s.chans[a*nodes+b]
			out := dst.chans[src*nodes+dst2][:0]
			for _, m := range ch {
				out = append(out, mapMsg(m))
			}
			dst.chans[src*nodes+dst2] = out
		}
	}
	dst.wq = dst.wq[:0]
	for _, w := range s.wq {
		w.sender = mapNode(w.sender)
		dst.wq = append(dst.wq, w)
	}
	dst.normalize()
}

// remapSet is a small sorted set of byte values used to renormalize
// counters order-preservingly without allocating: collected values map
// to base+rank. It lives on the stack of renorm, which runs once per
// permutation per state — the hottest path in the checker.
type remapSet struct {
	vals [64]byte
	n    int
}

func (r *remapSet) add(v byte) {
	i := 0
	for i < r.n && r.vals[i] < v {
		i++
	}
	if i < r.n && r.vals[i] == v {
		return
	}
	copy(r.vals[i+1:r.n+1], r.vals[i:r.n])
	r.vals[i] = v
	r.n++
}

func (r *remapSet) apply(v, base byte) byte {
	for i := 0; i < r.n; i++ {
		if r.vals[i] == v {
			return base + byte(i)
		}
	}
	return v // unreachable: every applied value was collected
}

// renorm rewrites request IDs and data versions order-preservingly so
// that states differing only in the absolute values of these counters
// collapse. Request IDs are renormalized per (core, line) — matching
// is only ever done against that core's own outstanding request.
// Versions are renormalized globally per line over every field that
// holds one; the remap is strictly monotone, so every comparison the
// semantics performs (equality against curVer, >= against seen) is
// preserved.
func (s *state) renorm(cfg Config) {
	n := cfg.L1s
	nodes := n + 2
	// One collect sweep and one apply sweep over the channels cover
	// every (core, line) id set and per-line version set at once; the
	// per-combination sets live in fixed-size stack arrays (L1s <= 4,
	// Lines <= 2).
	var ids [8]remapSet  // [core*Lines+line]
	var vers [2]remapSet // [line]
	// --- collect ---
	for c := 0; c < n; c++ {
		for ln := 0; ln < cfg.Lines; ln++ {
			L := &s.l1[c*cfg.Lines+ln]
			if L.pend {
				ids[c*cfg.Lines+ln].add(L.pReqID)
			}
			if L.st != sI {
				vers[ln].add(L.ver)
			}
			if L.vic {
				vers[ln].add(L.vicVer)
			}
			vers[ln].add(s.seen[c*cfg.Lines+ln])
		}
	}
	for ln := 0; ln < cfg.Lines; ln++ {
		d := &s.dir[ln]
		if int(d.tReq) < n && d.busy != bNone {
			ids[int(d.tReq)*cfg.Lines+ln].add(d.tReqID)
		}
		if d.exists && d.hasData {
			vers[ln].add(d.ver)
		}
		vers[ln].add(s.memVer[ln])
		vers[ln].add(s.curVer[ln])
		for i := range d.deferred {
			if msgCarriesVer(d.deferred[i].typ) {
				vers[ln].add(d.deferred[i].ver)
			}
		}
	}
	forEachMsg(s, nodes, func(src, dst int, m *msg) {
		if o := ownerOfReqID(m, src, dst, n); o >= 0 {
			ids[o*cfg.Lines+int(m.line)].add(m.reqID)
		}
		if msgCarriesVer(m.typ) {
			vers[m.line].add(m.ver)
		}
	})
	// --- apply ---
	for c := 0; c < n; c++ {
		for ln := 0; ln < cfg.Lines; ln++ {
			L := &s.l1[c*cfg.Lines+ln]
			if L.pend {
				L.pReqID = ids[c*cfg.Lines+ln].apply(L.pReqID, 1)
			}
			if L.st != sI {
				L.ver = vers[ln].apply(L.ver, 0)
			} else {
				L.ver = 0
			}
			if L.vic {
				L.vicVer = vers[ln].apply(L.vicVer, 0)
			}
			s.seen[c*cfg.Lines+ln] = vers[ln].apply(s.seen[c*cfg.Lines+ln], 0)
		}
	}
	for ln := 0; ln < cfg.Lines; ln++ {
		d := &s.dir[ln]
		if int(d.tReq) < n && d.busy != bNone {
			d.tReqID = ids[int(d.tReq)*cfg.Lines+ln].apply(d.tReqID, 1)
		}
		if d.exists && d.hasData {
			d.ver = vers[ln].apply(d.ver, 0)
		} else {
			d.ver = 0
		}
		s.memVer[ln] = vers[ln].apply(s.memVer[ln], 0)
		s.curVer[ln] = vers[ln].apply(s.curVer[ln], 0)
		for i := range d.deferred {
			if msgCarriesVer(d.deferred[i].typ) {
				d.deferred[i].ver = vers[ln].apply(d.deferred[i].ver, 0)
			}
		}
	}
	forEachMsg(s, nodes, func(src, dst int, m *msg) {
		if o := ownerOfReqID(m, src, dst, n); o >= 0 {
			m.reqID = ids[o*cfg.Lines+int(m.line)].apply(m.reqID, 1)
		}
		if msgCarriesVer(m.typ) {
			m.ver = vers[m.line].apply(m.ver, 0)
		}
	})
}

// ownerOfReqID attributes a message's reqID to the L1 whose request
// sequence produced it, or -1 when the message carries none.
func ownerOfReqID(m *msg, src, dst, n int) int {
	switch m.typ {
	case mGetS, mGetX:
		return src // requests travel L1 -> dir
	case mDataS, mDataE, mDataM, mWirUpgr, mNACK, mWDiscard:
		if dst < n {
			return dst // grants and bounces travel dir -> requester
		}
	case mDataOwnerS, mDataOwnerM:
		if dst < n {
			return dst // owner -> requester
		}
	case mFwdGetS, mFwdGetX:
		return int(m.req) // carries the original requester's id
	}
	return -1
}

// msgCarriesVer reports whether a message type's ver field is live.
func msgCarriesVer(typ byte) bool {
	switch typ {
	case mDataS, mDataE, mDataM, mDataOwnerS, mDataOwnerM, mWirUpgr,
		mCopyBack, mRecallAck, mPutM, mMemData, mMemWrite:
		return true
	}
	return false
}

func forEachMsg(s *state, nodes int, fn func(src, dst int, m *msg)) {
	for a := 0; a < nodes; a++ {
		for b := 0; b < nodes; b++ {
			ch := s.chans[a*nodes+b]
			for i := range ch {
				fn(a, b, &ch[i])
			}
		}
	}
}

// canonical returns the symmetry-reduced canonical key of s: the
// state is renormalized, then minimized over every permutation of the
// L1 identities, and the smallest encoding wins. s is left unchanged.
// The key is the Checker's buffer, valid until the next call, so a
// caller that keeps it converts it to a string; decode rebuilds the
// canonical representative from it.
func (ck *Checker) canonical(s *state) []byte {
	cfg := ck.cfg
	cand := ck.clone(s)
	cand.normalize()
	cand.renorm(cfg)
	ck.key = cand.encode(ck.key[:0])
	for _, perm := range ck.perms[1:] { // perms[0] is the identity
		s.permuteInto(cfg, perm, cand)
		cand.renorm(cfg)
		ck.alt = cand.encode(ck.alt[:0])
		if bytes.Compare(ck.alt, ck.key) < 0 {
			ck.key, ck.alt = ck.alt, ck.key
		}
	}
	ck.free.Put(cand)
	return ck.key
}

// permutations lists every permutation of 0..n-1, the identity first.
func permutations(n int) [][]int {
	var out [][]int
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return out
}
