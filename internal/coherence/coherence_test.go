package coherence

import (
	"testing"
	"unsafe"

	"repro/internal/addrspace"
	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/wireless"
	"repro/internal/xrand"
)

// mockEnv wires a handful of L1 controllers and home controllers
// together with zero-latency-ish plumbing: wired messages deliver after
// one "pump" round, wireless transmissions go through a real
// wireless.Channel, and time advances manually. It exists to drive the
// controller state machines directly in unit tests.
type mockEnv struct {
	now    uint64
	events engine.Queue
	wchan  *wireless.Channel[Msg]
	nodes  int

	l1s    []*L1Ctrl
	homes  []*HomeCtrl
	memory *MemoryImage

	wired []wiredMsg

	protoErr *ProtocolError // first reported protocol error
}

type wiredMsg struct {
	dst  int
	port PortKind
	m    *Msg
}

func newMockEnv(nodes int) *mockEnv {
	e := &mockEnv{nodes: nodes, memory: NewMemoryImage()}
	e.wchan = wireless.NewChannel[Msg](xrand.New(1))
	e.wchan.SetBroadcast(func(now uint64, msg wireless.Message[Msg]) {
		for _, l1 := range e.l1s {
			l1.HandleWireless(now, &msg.Payload)
		}
		for _, h := range e.homes {
			h.HandleWireless(now, &msg.Payload)
		}
	})
	l1cfg := L1Config{
		Cache:          cache.Config{SizeBytes: 8 * addrspace.LineSize, Ways: 2},
		Protocol:       WiDir,
		HitLatency:     1,
		RetryDelay:     16,
		UpdateCountMax: 3,
	}
	homecfg := HomeConfig{Protocol: WiDir, MaxPointers: 3, MaxWiredSharers: 3, Entries: 64, LLCLatency: 2}
	for i := 0; i < nodes; i++ {
		e.l1s = append(e.l1s, NewL1(i, l1cfg, e))
		h := NewHome(i, homecfg, e)
		h.Memory = e.memory
		e.homes = append(e.homes, h)
	}
	return e
}

func (e *mockEnv) Now() uint64 { return e.now }

func (e *mockEnv) SendWired(src, dst int, port PortKind, m Msg) {
	e.wired = append(e.wired, wiredMsg{dst: dst, port: port, m: &m})
}

// FreeMsg leaves freed messages to the garbage collector: the mock
// does not recycle them.
func (e *mockEnv) FreeMsg(*Msg) {}

func (e *mockEnv) TransmitWireless(m Msg, privileged bool, cb TxCallback) uint64 {
	return e.wchan.Transmit(wireless.Message[Msg]{Sender: m.Src, Line: m.Line, Payload: m, Privileged: privileged}, cb)
}
func (e *mockEnv) CancelWireless(tx uint64) bool { return e.wchan.Cancel(tx) }

func (e *mockEnv) WirelessActive(l addrspace.Line) bool { return e.wchan.ActiveOn(l) }
func (e *mockEnv) Jam(l addrspace.Line, owner int)      { e.wchan.Jam(l, owner) }
func (e *mockEnv) Unjam(l addrspace.Line, owner int)    { e.wchan.Unjam(l, owner) }
func (e *mockEnv) RaiseTone()                           { e.wchan.RaiseTone() }
func (e *mockEnv) LowerTone()                           { e.wchan.LowerTone() }
func (e *mockEnv) WaitToneSilent(r engine.Runner)       { e.wchan.WaitToneSilent(r) }
func (e *mockEnv) AfterRunner(d uint64, r engine.Runner) {
	e.events.At(e.now+d, r)
}
func (e *mockEnv) HomeOf(l addrspace.Line) int { return int(uint64(l) % uint64(e.nodes)) }
func (e *mockEnv) MCOf(l addrspace.Line) int   { return 0 }
func (e *mockEnv) Nodes() int                  { return e.nodes }

func (e *mockEnv) ReportProtocolError(pe *ProtocolError) {
	if e.protoErr == nil {
		e.protoErr = pe
	}
}

// pump advances time one cycle and delivers all queued wired messages.
func (e *mockEnv) pump() {
	e.now++
	batch := e.wired
	e.wired = nil
	for _, wm := range batch {
		e.deliver(wm)
	}
	e.wchan.Tick(e.now)
	e.events.RunDue(e.now)
}

// deliver hands one wired message to its destination now.
func (e *mockEnv) deliver(wm wiredMsg) {
	switch wm.port {
	case PortL1:
		e.l1s[wm.dst].HandleWired(e.now, wm.m)
	case PortHome:
		e.homes[wm.dst].HandleWired(e.now, wm.m)
	case PortMC:
		// Immediate memory: respond with the line contents.
		resp := &Msg{Type: MsgMemData, Line: wm.m.Line, HasData: true, Words: e.memory.ReadLine(wm.m.Line)}
		if wm.m.Type == MsgMemRead {
			e.homes[wm.m.Requester].HandleWired(e.now, resp)
		}
	}
}

// home returns the controller that owns the line.
func (e *mockEnv) home(l addrspace.Line) *HomeCtrl { return e.homes[e.HomeOf(l)] }

func (e *mockEnv) pumpN(n int) {
	for i := 0; i < n; i++ {
		e.pump()
	}
}

// Simpler helper: issue and wait for completion, returning the value.
func (e *mockEnv) complete(t *testing.T, core int, r *MemRequest) uint64 {
	t.Helper()
	var got *uint64
	r.Done = func(_ *MemRequest, now uint64, v uint64) { vv := v; got = &vv }
	e.l1s[core].Access(r)
	for i := 0; i < 10000 && got == nil; i++ {
		e.pump()
	}
	if got == nil {
		t.Fatalf("request %+v never completed", r)
	}
	return *got
}

func TestReadMissFillsExclusive(t *testing.T) {
	e := newMockEnv(4)
	e.memory.WriteLine(8, [addrspace.WordsPerLine]uint64{0: 77})
	v := e.complete(t, 1, &MemRequest{Addr: addrspace.Line(8).Base()})
	if v != 77 {
		t.Fatalf("load = %d, want 77", v)
	}
	ln := e.l1s[1].Cache().Lookup(8)
	if ln == nil || ln.State != cache.Exclusive {
		t.Fatalf("MESI clean-exclusive expected, got %v", ln)
	}
	entry := e.home(8).Entry(8)
	if entry == nil || entry.State != DirOwned || entry.Owner != 1 {
		t.Fatalf("directory: %+v", entry)
	}
}

func TestWriteMissFillsModified(t *testing.T) {
	e := newMockEnv(4)
	e.complete(t, 2, &MemRequest{IsWrite: true, Addr: addrspace.Line(8).Base(), Value: 5})
	ln := e.l1s[2].Cache().Lookup(8)
	if ln == nil || ln.State != cache.Modified || ln.Words[0] != 5 {
		t.Fatalf("modified fill: %+v", ln)
	}
}

func TestSilentEToMUpgrade(t *testing.T) {
	e := newMockEnv(4)
	a := addrspace.Line(8).Base()
	e.complete(t, 1, &MemRequest{Addr: a})
	e.complete(t, 1, &MemRequest{IsWrite: true, Addr: a, Value: 9})
	ln := e.l1s[1].Cache().Lookup(8)
	if ln.State != cache.Modified || !ln.Dirty {
		t.Fatalf("E->M upgrade: %+v", ln)
	}
	if v := e.complete(t, 1, &MemRequest{Addr: a}); v != 9 {
		t.Fatalf("read own write = %d", v)
	}
}

func TestReadAfterRemoteWrite(t *testing.T) {
	e := newMockEnv(4)
	a := addrspace.Line(8).Base()
	e.complete(t, 1, &MemRequest{IsWrite: true, Addr: a, Value: 31})
	if v := e.complete(t, 2, &MemRequest{Addr: a}); v != 31 {
		t.Fatalf("remote read = %d, want 31", v)
	}
	// Owner downgraded, requester shared.
	if st := e.l1s[1].Cache().Lookup(8).State; st != cache.Shared {
		t.Fatalf("old owner state %v", st)
	}
	if st := e.l1s[2].Cache().Lookup(8).State; st != cache.Shared {
		t.Fatalf("reader state %v", st)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	e := newMockEnv(4)
	a := addrspace.Line(8).Base()
	e.complete(t, 0, &MemRequest{Addr: a})
	e.complete(t, 1, &MemRequest{Addr: a})
	e.complete(t, 2, &MemRequest{IsWrite: true, Addr: a, Value: 1})
	if e.l1s[0].Cache().Lookup(8) != nil {
		t.Fatal("sharer 0 not invalidated")
	}
	if e.l1s[1].Cache().Lookup(8) != nil {
		t.Fatal("sharer 1 not invalidated")
	}
	if st := e.l1s[2].Cache().Lookup(8).State; st != cache.Modified {
		t.Fatalf("writer state %v", st)
	}
}

func TestSToWTransition(t *testing.T) {
	e := newMockEnv(6)
	a := addrspace.Line(8).Base()
	// Four readers exceed MaxWiredSharers=3: the fourth triggers S->W.
	for core := 0; core < 4; core++ {
		e.complete(t, core, &MemRequest{Addr: a})
	}
	e.pumpN(50)
	entry := e.home(8).Entry(8)
	if entry.State != DirWireless {
		t.Fatalf("directory state %v, want DW", entry.State)
	}
	if entry.SharerCount != 4 {
		t.Fatalf("SharerCount = %d, want 4", entry.SharerCount)
	}
	for core := 0; core < 4; core++ {
		ln := e.l1s[core].Cache().Lookup(8)
		if ln == nil || ln.State != cache.Wireless {
			t.Fatalf("core %d state %v, want W", core, ln)
		}
	}
}

func TestWirelessWriteUpdatesAllSharers(t *testing.T) {
	e := newMockEnv(6)
	a := addrspace.Line(8).Base()
	for core := 0; core < 4; core++ {
		e.complete(t, core, &MemRequest{Addr: a})
	}
	e.pumpN(50)
	e.complete(t, 2, &MemRequest{IsWrite: true, Addr: a, Value: 1234})
	e.pumpN(20)
	for core := 0; core < 4; core++ {
		ln := e.l1s[core].Cache().Lookup(8)
		if ln == nil || ln.Words[0] != 1234 {
			t.Fatalf("core %d missed the wireless update: %+v", core, ln)
		}
	}
	// The home's LLC copy merged the update and is dirty.
	entry := e.home(8).Entry(8)
	if entry.Words[0] != 1234 || !entry.Dirty {
		t.Fatalf("home copy not merged: %+v", entry)
	}
	if e.l1s[2].Stats.WirelessWrites != 1 {
		t.Fatal("wireless write not counted")
	}
}

func TestWirelessReadIsLocal(t *testing.T) {
	e := newMockEnv(6)
	a := addrspace.Line(8).Base()
	for core := 0; core < 4; core++ {
		e.complete(t, core, &MemRequest{Addr: a})
	}
	e.pumpN(50)
	misses := e.l1s[1].Stats.LoadMisses
	e.complete(t, 1, &MemRequest{Addr: a})
	if e.l1s[1].Stats.LoadMisses != misses {
		t.Fatal("W-state read missed")
	}
	if e.l1s[1].Stats.WirelessReads == 0 {
		t.Fatal("wireless read not counted")
	}
}

func TestUpdateCountDecay(t *testing.T) {
	e := newMockEnv(6)
	a := addrspace.Line(8).Base()
	for core := 0; core < 4; core++ {
		e.complete(t, core, &MemRequest{Addr: a})
	}
	e.pumpN(50)
	// Core 1 writes repeatedly; core 3 never touches the line again and
	// must self-invalidate after UpdateCountMax updates.
	for i := 0; i < 4; i++ {
		e.complete(t, 1, &MemRequest{IsWrite: true, Addr: a, Value: uint64(i)})
		e.pumpN(10)
	}
	e.pumpN(50)
	if e.l1s[3].Cache().Lookup(8) != nil {
		t.Fatal("idle sharer did not decay")
	}
	if e.l1s[3].Stats.SelfInvalidations == 0 {
		t.Fatal("self-invalidation not counted")
	}
}

func TestWToSDowngrade(t *testing.T) {
	e := newMockEnv(6)
	a := addrspace.Line(8).Base()
	for core := 0; core < 5; core++ {
		e.complete(t, core, &MemRequest{Addr: a})
	}
	e.pumpN(50)
	entry := e.home(8).Entry(8)
	if entry.State != DirWireless || entry.SharerCount != 5 {
		t.Fatalf("setup failed: %v count=%d", entry.State, entry.SharerCount)
	}
	// Two sharers decay away (writes they don't consume), dropping the
	// count to MaxWiredSharers and triggering the downgrade.
	for i := 0; i < 8; i++ {
		e.complete(t, 0, &MemRequest{IsWrite: true, Addr: a, Value: uint64(i)})
		e.pumpN(10)
		// Keep cores 1 and 2 interested.
		e.complete(t, 1, &MemRequest{Addr: a})
		e.complete(t, 2, &MemRequest{Addr: a})
	}
	e.pumpN(200)
	entry = e.home(8).Entry(8)
	if entry.State != DirShared {
		t.Fatalf("directory state %v, want DS after downgrade", entry.State)
	}
	if len(entry.Sharers) == 0 || len(entry.Sharers) > 3 {
		t.Fatalf("pointer set %v", entry.Sharers)
	}
	for _, s := range entry.Sharers {
		ln := e.l1s[s].Cache().Lookup(8)
		if ln == nil || ln.State != cache.Shared {
			t.Fatalf("recorded sharer %d not in S: %+v", s, ln)
		}
	}
}

func TestWirelessRMWAtomicity(t *testing.T) {
	e := newMockEnv(6)
	a := addrspace.Line(8).Base()
	for core := 0; core < 4; core++ {
		e.complete(t, core, &MemRequest{Addr: a})
	}
	e.pumpN(50)
	// Fetch-adds from every sharer must sum exactly.
	for round := 0; round < 3; round++ {
		for core := 0; core < 4; core++ {
			e.complete(t, core, &MemRequest{IsRMW: true, RMW: RMWFetchAdd, Addr: a, Value: 1})
			e.pumpN(5)
		}
	}
	e.pumpN(50)
	v := e.complete(t, 1, &MemRequest{Addr: a})
	if v != 12 {
		t.Fatalf("fetch-add sum = %d, want 12", v)
	}
}

func TestFailedCASDoesNotBroadcast(t *testing.T) {
	e := newMockEnv(6)
	a := addrspace.Line(8).Base()
	e.complete(t, 0, &MemRequest{IsWrite: true, Addr: a, Value: 1}) // lock held
	for core := 1; core < 5; core++ {
		e.complete(t, core, &MemRequest{Addr: a})
	}
	e.pumpN(50)
	if e.home(8).Entry(8).State != DirWireless {
		t.Fatal("line did not reach W")
	}
	before := e.l1s[1].Stats.WirelessWrites
	old := e.complete(t, 1, &MemRequest{IsRMW: true, RMW: RMWCompareSwap, Addr: a, Expected: 0, Value: 1})
	if old != 1 {
		t.Fatalf("CAS old = %d, want 1 (failure)", old)
	}
	if e.l1s[1].Stats.WirelessWrites != before {
		t.Fatal("failed CAS consumed wireless bandwidth")
	}
}

func TestDirEntryEvictionWirInv(t *testing.T) {
	e := newMockEnv(4)
	// Shrink the directory so an eviction happens.
	e.homes[0] = NewHome(0, HomeConfig{Protocol: WiDir, MaxPointers: 3, MaxWiredSharers: 3, Entries: 1, LLCLatency: 1}, e)
	e.homes[0].Memory = e.memory
	a := addrspace.Line(4).Base() // home 0
	for core := 0; core < 4; core++ {
		e.complete(t, core, &MemRequest{Addr: a})
	}
	e.pumpN(50)
	if e.homes[0].Entry(4) == nil || e.homes[0].Entry(4).State != DirWireless {
		t.Fatal("line did not reach W")
	}
	// A different line with the same home forces the entry out.
	b := addrspace.Line(8).Base()
	e.complete(t, 1, &MemRequest{Addr: b})
	e.pumpN(100)
	if e.homes[0].Entry(4) != nil {
		t.Fatal("W entry not evicted")
	}
	for core := 0; core < 4; core++ {
		if e.l1s[core].Cache().Lookup(4) != nil {
			t.Fatalf("core %d survived WirInv", core)
		}
	}
	if e.homes[0].Stats.WirInvs == 0 {
		t.Fatal("WirInv not counted")
	}
}

func TestBaselineBroadcastBit(t *testing.T) {
	e := newMockEnv(6)
	// Rebuild homes as Baseline so pointer overflow sets B.
	for i := range e.homes {
		e.homes[i] = NewHome(i, HomeConfig{Protocol: Baseline, MaxPointers: 3, MaxWiredSharers: 3, Entries: 64, LLCLatency: 2}, e)
		e.homes[i].Memory = e.memory
	}
	l1cfg := L1Config{Cache: cache.Config{SizeBytes: 8 * addrspace.LineSize, Ways: 2}, Protocol: Baseline, HitLatency: 1, RetryDelay: 16, UpdateCountMax: 3}
	for i := range e.l1s {
		e.l1s[i] = NewL1(i, l1cfg, e)
	}
	a := addrspace.Line(6).Base()
	for core := 0; core < 5; core++ {
		e.complete(t, core, &MemRequest{Addr: a})
	}
	entry := e.home(6).Entry(6)
	if entry.State != DirShared || !entry.Broadcast {
		t.Fatalf("overflow did not set B: %+v", entry)
	}
	// A write now broadcasts invalidations to everyone and still works.
	e.complete(t, 5, &MemRequest{IsWrite: true, Addr: a, Value: 7})
	e.pumpN(20)
	for core := 0; core < 5; core++ {
		if e.l1s[core].Cache().Lookup(6) != nil {
			t.Fatalf("core %d survived broadcast invalidation", core)
		}
	}
	if e.home(6).Stats.BroadcastInvs == 0 {
		t.Fatal("broadcast invalidation not counted")
	}
	if v := e.complete(t, 1, &MemRequest{Addr: a}); v != 7 {
		t.Fatalf("value after broadcast write = %d", v)
	}
}

func TestEvictionNotifiesDirectory(t *testing.T) {
	e := newMockEnv(4)
	// The tiny 8-line, 2-way L1 evicts as we walk lines in one set.
	sets := e.l1s[1].Cache().Sets()
	a := addrspace.Line(4)
	b := a + addrspace.Line(sets)
	c := b + addrspace.Line(sets)
	for _, l := range []addrspace.Line{a, b, c} {
		e.complete(t, 1, &MemRequest{Addr: l.Base()})
	}
	e.pumpN(50)
	if e.l1s[1].Cache().Lookup(a) != nil {
		t.Fatal("LRU line survived")
	}
	// The home of line a must no longer list core 1.
	h := e.homes[e.HomeOf(a)]
	if entry := h.Entry(a); entry != nil && entry.State == DirOwned && entry.Owner == 1 && !e.l1s[1].VictimHolds(a) {
		t.Fatalf("directory still believes core 1 owns the evicted line: %+v", entry)
	}
}

func TestRMWKinds(t *testing.T) {
	cases := []struct {
		k                  RMWKind
		old, op, exp, want uint64
	}{
		{RMWTestAndSet, 0, 0, 0, 1},
		{RMWTestAndSet, 7, 0, 0, 1},
		{RMWExchange, 7, 3, 0, 3},
		{RMWFetchAdd, 7, 3, 0, 10},
		{RMWCompareSwap, 7, 3, 7, 3},
		{RMWCompareSwap, 7, 3, 8, 7},
	}
	for _, c := range cases {
		if got := c.k.Apply(c.old, c.op, c.exp); got != c.want {
			t.Errorf("%v.Apply(%d,%d,%d) = %d, want %d", c.k, c.old, c.op, c.exp, got, c.want)
		}
	}
}

func TestMsgBytes(t *testing.T) {
	m := &Msg{Type: MsgGetS}
	if m.Bytes() != 8 {
		t.Fatalf("control bytes = %d", m.Bytes())
	}
	d := &Msg{Type: MsgDataM, HasData: true}
	if d.Bytes() != 8+addrspace.LineSize {
		t.Fatalf("data bytes = %d", d.Bytes())
	}
}

// TestMsgSize pins a Msg at 120 bytes on 64-bit hosts: a WirUpd's word
// index rides in the padding after the flags, and every pooled wired
// message and queued broadcast is a Msg.
func TestMsgSize(t *testing.T) {
	if unsafe.Sizeof(int(0)) != 8 {
		t.Skip("sized for 64-bit ints")
	}
	if n := unsafe.Sizeof(Msg{}); n != 120 {
		t.Fatalf("Msg is %d bytes, want 120", n)
	}
}

// TestMemRequestSize pins a MemRequest at 88 bytes on 64-bit hosts:
// every core holds one per load-queue entry, one for its RMW and one
// per store in its write buffer.
func TestMemRequestSize(t *testing.T) {
	if unsafe.Sizeof(int(0)) != 8 {
		t.Skip("sized for 64-bit ints")
	}
	if n := unsafe.Sizeof(MemRequest{}); n != 88 {
		t.Fatalf("MemRequest is %d bytes, want 88", n)
	}
}

func TestProtocolString(t *testing.T) {
	if Baseline.String() != "Baseline" || WiDir.String() != "WiDir" {
		t.Fatal("protocol names")
	}
	if MsgGetS.String() != "GetS" || MsgWirUpgr.String() != "WirUpgr" {
		t.Fatal("message names")
	}
}

func TestCoarseVectorScheme(t *testing.T) {
	e := newMockEnv(8)
	// Rebuild as Baseline Dir_iCV_2: regions of two nodes.
	for i := range e.homes {
		e.homes[i] = NewHome(i, HomeConfig{
			Protocol: Baseline, Scheme: DirCV, MaxPointers: 3, MaxWiredSharers: 3,
			CoarseRegion: 2, Entries: 64, LLCLatency: 2,
		}, e)
		e.homes[i].Memory = e.memory
	}
	l1cfg := L1Config{Cache: cache.Config{SizeBytes: 8 * addrspace.LineSize, Ways: 2}, Protocol: Baseline, HitLatency: 1, RetryDelay: 16, UpdateCountMax: 3}
	for i := range e.l1s {
		e.l1s[i] = NewL1(i, l1cfg, e)
	}
	a := addrspace.Line(6).Base()
	// Sharers 0..3 (regions 0 and 1) overflow the 3 pointers.
	for core := 0; core < 4; core++ {
		e.complete(t, core, &MemRequest{Addr: a})
	}
	entry := e.home(6).Entry(6)
	if !entry.Broadcast || entry.CoarseVec != 0b11 {
		t.Fatalf("coarse vector wrong: %+v", entry)
	}
	// A write from core 7 (region 3) must invalidate regions 0 and 1
	// only: cores 0..3 plus region-mates, not core 5 (region 2).
	invsBefore := e.home(6).Stats.Invalidations
	e.complete(t, 7, &MemRequest{IsWrite: true, Addr: a, Value: 9})
	e.pumpN(20)
	sent := e.home(6).Stats.Invalidations - invsBefore
	if sent != 4 {
		t.Fatalf("Dir_iCV_2 sent %d invalidations, want 4 (two regions)", sent)
	}
	for core := 0; core < 4; core++ {
		if e.l1s[core].Cache().Lookup(6) != nil {
			t.Fatalf("sharer %d survived", core)
		}
	}
	if v := e.complete(t, 2, &MemRequest{Addr: a}); v != 9 {
		t.Fatalf("value after CV invalidation round = %d", v)
	}
}

func TestDirSchemeString(t *testing.T) {
	if DirB.String() != "Dir_iB" || DirCV.String() != "Dir_iCV_r" {
		t.Fatal("scheme names")
	}
}

// TestWirInvSquashesPendingWrite covers Table I W->I case 2 with §IV-C:
// a WirInv arriving while a wireless write waits for the channel
// squashes the write, which then retries over the wired path and still
// completes with the correct value.
func TestWirInvSquashesPendingWrite(t *testing.T) {
	e := newMockEnv(4)
	e.homes[0] = NewHome(0, HomeConfig{Protocol: WiDir, MaxPointers: 3, MaxWiredSharers: 3, Entries: 1, LLCLatency: 1}, e)
	e.homes[0].Memory = e.memory
	a := addrspace.Line(4).Base() // home 0
	for core := 0; core < 4; core++ {
		e.complete(t, core, &MemRequest{Addr: a})
	}
	e.pumpN(50)
	if ent := e.homes[0].Entry(4); ent == nil || ent.State != DirWireless {
		t.Fatal("line did not reach W")
	}
	// Queue a wireless write but do NOT pump: it sits on the channel.
	var got *uint64
	e.l1s[2].Access(&MemRequest{
		IsWrite: true, Addr: a, Value: 777,
		Done: func(_ *MemRequest, now uint64, v uint64) { vv := v; got = &vv },
	})
	// Force the home to evict the W entry (WirInv) before the write
	// can serialize, by touching another line with the same home.
	b := addrspace.Line(8).Base()
	e.l1s[1].Access(&MemRequest{Addr: b, Done: func(*MemRequest, uint64, uint64) {}})
	for i := 0; i < 5000 && got == nil; i++ {
		e.pump()
	}
	if got == nil {
		t.Fatal("squashed write never completed")
	}
	// The value must be durable: read it back from scratch.
	if v := e.complete(t, 3, &MemRequest{Addr: a}); v != 777 {
		t.Fatalf("value after squash-and-retry = %d, want 777", v)
	}
}

// TestWEvictionSendsPutW covers Table I W->I case 1: a cache evicting a
// W line notifies the directory, which decrements SharerCount.
func TestWEvictionSendsPutW(t *testing.T) {
	e := newMockEnv(6)
	a := addrspace.Line(8).Base()
	for core := 0; core < 5; core++ {
		e.complete(t, core, &MemRequest{Addr: a})
	}
	e.pumpN(50)
	ent := e.home(8).Entry(8)
	if ent.State != DirWireless || ent.SharerCount != 5 {
		t.Fatalf("setup: %v count=%d, want W with 5 sharers", ent.State, ent.SharerCount)
	}
	// Fill core 4's set so line 8 gets evicted: same-set lines.
	sets := e.l1s[4].Cache().Sets()
	e.complete(t, 4, &MemRequest{Addr: (addrspace.Line(8) + addrspace.Line(sets)).Base()})
	e.complete(t, 4, &MemRequest{Addr: (addrspace.Line(8) + addrspace.Line(2*sets)).Base()})
	e.pumpN(100)
	if e.l1s[4].Cache().Lookup(8) != nil {
		t.Fatal("eviction did not pick the W line")
	}
	if ent.SharerCount != 4 {
		t.Fatalf("SharerCount = %d after W eviction, want 4", ent.SharerCount)
	}
}

// TestToneHeldDuringSToW observes the ToneAck primitive: during the
// S->W transition a node with an in-flight wired request holds the
// tone, and the channel reports it.
func TestToneHeldDuringSToW(t *testing.T) {
	e := newMockEnv(6)
	a := addrspace.Line(8).Base()
	for core := 0; core < 3; core++ {
		e.complete(t, core, &MemRequest{Addr: a})
	}
	// Two more requests in flight at once: one triggers S->W, the other
	// is mid-flight when BrWirUpgr broadcasts and must hold the tone.
	done := 0
	for core := 3; core < 5; core++ {
		e.l1s[core].Access(&MemRequest{Addr: a, Done: func(*MemRequest, uint64, uint64) { done++ }})
	}
	sawTone := false
	for i := 0; i < 5000 && done < 2; i++ {
		e.pump()
		if e.wchan.ToneHolds() > 0 {
			sawTone = true
		}
	}
	if done < 2 {
		t.Fatal("requests never completed")
	}
	if !sawTone {
		t.Fatal("no tone hold observed during the S->W transition")
	}
	e.pumpN(100)
	if e.wchan.ToneHolds() != 0 {
		t.Fatalf("tone leaked: %d holders", e.wchan.ToneHolds())
	}
}

// TestWirUpgrNeedAckIncrementsCount covers Table II W->W case 1
// explicitly: a wired join of a W line increments SharerCount exactly
// once, after the WirUpgrAck round trip.
func TestWirUpgrNeedAckIncrementsCount(t *testing.T) {
	e := newMockEnv(8)
	a := addrspace.Line(8).Base()
	for core := 0; core < 4; core++ {
		e.complete(t, core, &MemRequest{Addr: a})
	}
	e.pumpN(50)
	ent := e.home(8).Entry(8)
	before := ent.SharerCount
	e.complete(t, 6, &MemRequest{Addr: a})
	e.pumpN(50)
	if ent.SharerCount != before+1 {
		t.Fatalf("SharerCount %d -> %d, want +1", before, ent.SharerCount)
	}
	if ln := e.l1s[6].Cache().Lookup(8); ln == nil || ln.State != cache.Wireless {
		t.Fatalf("joiner state: %+v", ln)
	}
}

// Tests below drive the less-travelled controller paths directly:
// accessor methods, contended queuing, RMW hits, stale puts, recalls
// served from the victim buffer, and the diagnostic helpers.

func TestAccessQueuesBehindPending(t *testing.T) {
	e := newMockEnv(4)
	a := addrspace.Line(8).Base()
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.l1s[1].Access(&MemRequest{Addr: a + addrspace.Addr(8*i), Done: func(*MemRequest, uint64, uint64) { order = append(order, i) }})
	}
	if !e.l1s[1].HasPending() || !e.l1s[1].PendingLine(8) {
		t.Fatal("pending not tracked")
	}
	if e.l1s[1].Describe() == "" {
		t.Fatal("describe empty with pending work")
	}
	e.pumpN(500)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("queued accesses completed out of order: %v", order)
	}
	if e.l1s[1].ID() != 1 || e.homes[1].ID() != 1 {
		t.Fatal("IDs wrong")
	}
}

func TestRMWHitOnOwnedLine(t *testing.T) {
	e := newMockEnv(4)
	a := addrspace.Line(8).Base()
	e.complete(t, 1, &MemRequest{IsWrite: true, Addr: a, Value: 10})
	old := e.complete(t, 1, &MemRequest{IsRMW: true, RMW: RMWFetchAdd, Addr: a, Value: 5})
	if old != 10 {
		t.Fatalf("RMW hit old = %d", old)
	}
	if v := e.complete(t, 1, &MemRequest{Addr: a}); v != 15 {
		t.Fatalf("after RMW = %d", v)
	}
	// Exchange and TAS on the owned line.
	if old := e.complete(t, 1, &MemRequest{IsRMW: true, RMW: RMWExchange, Addr: a, Value: 3}); old != 15 {
		t.Fatalf("exchange old = %d", old)
	}
	if old := e.complete(t, 1, &MemRequest{IsRMW: true, RMW: RMWTestAndSet, Addr: a}); old != 3 {
		t.Fatalf("TAS old = %d", old)
	}
}

func TestStalePutFromFormerSharer(t *testing.T) {
	e := newMockEnv(4)
	a := addrspace.Line(8).Base()
	// 0 and 1 share; 2 takes ownership (invalidating both); then a
	// stale PutS from 0 must not disturb the new owner.
	e.complete(t, 0, &MemRequest{Addr: a})
	e.complete(t, 1, &MemRequest{Addr: a})
	e.complete(t, 2, &MemRequest{IsWrite: true, Addr: a, Value: 4})
	ent := e.home(8).Entry(8)
	e.homes[e.HomeOf(8)].HandleWired(e.now, &Msg{Type: MsgPutS, Line: 8, Src: 0})
	e.pumpN(10)
	if ent.State != DirOwned || ent.Owner != 2 {
		t.Fatalf("stale PutS disturbed the entry: %+v", ent)
	}
	// A stale PutM from a non-owner is also ignored.
	e.homes[e.HomeOf(8)].HandleWired(e.now, &Msg{Type: MsgPutM, Line: 8, Src: 1, HasData: true})
	e.pumpN(10)
	if ent.State != DirOwned || ent.Owner != 2 {
		t.Fatalf("stale PutM disturbed the entry: %+v", ent)
	}
}

func TestForwardServedFromVictimBuffer(t *testing.T) {
	e := newMockEnv(4)
	sets := e.l1s[1].Cache().Sets()
	a := addrspace.Line(8)
	// Core 1 owns line a dirty.
	e.complete(t, 1, &MemRequest{IsWrite: true, Addr: a.Base(), Value: 42})
	// Evict it from core 1 by filling the set — but freeze the home so
	// the PutM stays unacknowledged (the victim buffer must serve).
	// We emulate the freeze by issuing the conflicting fills and the
	// remote read in the same pump window.
	e.l1s[1].Access(&MemRequest{Addr: (a + addrspace.Line(sets)).Base(), Done: func(*MemRequest, uint64, uint64) {}})
	e.l1s[1].Access(&MemRequest{Addr: (a + addrspace.Line(2*sets)).Base(), Done: func(*MemRequest, uint64, uint64) {}})
	if v := e.complete(t, 2, &MemRequest{Addr: a.Base()}); v != 42 {
		t.Fatalf("read after eviction race = %d, want 42", v)
	}
}

func TestRecallFromOwnerAndAbsent(t *testing.T) {
	e := newMockEnv(4)
	e.homes[0] = NewHome(0, HomeConfig{Protocol: WiDir, MaxPointers: 3, MaxWiredSharers: 3, Entries: 1, LLCLatency: 1}, e)
	e.homes[0].Memory = e.memory
	a := addrspace.Line(4).Base()
	e.complete(t, 1, &MemRequest{IsWrite: true, Addr: a, Value: 9})
	// Another line with the same home forces a recall of the first.
	b := addrspace.Line(8).Base()
	e.complete(t, 2, &MemRequest{Addr: b})
	e.pumpN(100)
	if e.homes[0].Entry(4) != nil {
		t.Fatal("owned entry not recalled")
	}
	if e.l1s[1].Cache().Lookup(4) != nil {
		t.Fatal("owner kept the recalled line")
	}
	// The dirty value survives through memory.
	if v := e.complete(t, 3, &MemRequest{Addr: a}); v != 9 {
		t.Fatalf("value after recall = %d", v)
	}
}

func TestHasBusyAndDescribe(t *testing.T) {
	e := newMockEnv(4)
	a := addrspace.Line(8).Base()
	e.l1s[1].Access(&MemRequest{Addr: a, Done: func(*MemRequest, uint64, uint64) {}})
	// Memory fetch in flight: the home entry is busy at some point.
	sawBusy := false
	for i := 0; i < 200; i++ {
		e.pump()
		if e.home(8).HasBusy() {
			sawBusy = true
			if e.home(8).Describe() == "" {
				t.Fatal("describe empty while busy")
			}
		}
	}
	if !sawBusy {
		t.Skip("fetch resolved without observable busy window")
	}
}

func TestForEachEntry(t *testing.T) {
	e := newMockEnv(4)
	e.complete(t, 1, &MemRequest{Addr: addrspace.Line(8).Base()})
	n := 0
	e.home(8).ForEachEntry(func(*DirEntry) { n++ })
	if n != 1 {
		t.Fatalf("entries = %d", n)
	}
}

func TestBroadcastModeRemoveSharer(t *testing.T) {
	e := newMockEnv(6)
	for i := range e.homes {
		e.homes[i] = NewHome(i, HomeConfig{Protocol: Baseline, MaxPointers: 2, MaxWiredSharers: 2, Entries: 64, LLCLatency: 2}, e)
		e.homes[i].Memory = e.memory
	}
	l1cfg := L1Config{Cache: cache.Config{SizeBytes: 8 * addrspace.LineSize, Ways: 2}, Protocol: Baseline, HitLatency: 1, RetryDelay: 16, UpdateCountMax: 3}
	for i := range e.l1s {
		e.l1s[i] = NewL1(i, l1cfg, e)
	}
	a := addrspace.Line(6).Base()
	for core := 0; core < 4; core++ {
		e.complete(t, core, &MemRequest{Addr: a})
	}
	ent := e.home(6).Entry(6)
	if !ent.Broadcast {
		t.Fatal("overflow did not set B")
	}
	approxBefore := ent.SharerApprox
	// Evictions in B mode decrement the approximate count.
	e.homes[e.HomeOf(6)].HandleWired(e.now, &Msg{Type: MsgPutS, Line: 6, Src: 0})
	e.pumpN(5)
	if ent.SharerApprox != approxBefore-1 {
		t.Fatalf("approx count %d -> %d", approxBefore, ent.SharerApprox)
	}
	// Draining every sharer resets the entry to DI.
	for core := 1; core < 4; core++ {
		e.homes[e.HomeOf(6)].HandleWired(e.now, &Msg{Type: MsgPutS, Line: 6, Src: core})
	}
	e.pumpN(5)
	if ent.State != DirInvalid || ent.Broadcast {
		t.Fatalf("B-mode entry not cleared: %+v", ent)
	}
}

func TestPutAgainstMissingEntry(t *testing.T) {
	e := newMockEnv(4)
	// A put for a line the home has no entry for is acked leniently.
	e.homes[0].HandleWired(e.now, &Msg{Type: MsgPutS, Line: 4, Src: 2})
	e.pumpN(5)
	// Nothing to assert beyond "no panic"; the PutAck went back.
}

func TestVictimHoldsAccessor(t *testing.T) {
	e := newMockEnv(4)
	if e.l1s[0].VictimHolds(99) {
		t.Fatal("phantom victim")
	}
}

func TestDirStateStrings(t *testing.T) {
	for st, want := range map[DirState]string{
		DirInvalid: "DI", DirShared: "DS", DirOwned: "DO", DirWireless: "DW",
	} {
		if st.String() != want {
			t.Errorf("%d -> %q want %q", st, st.String(), want)
		}
	}
}

// TestStaleGrantThenNACKLocalSatisfy stages the abandoned-request race
// directly: a grant for an old request installs idempotently without
// completing the current one; the current request's NACK retry then
// discovers the line is locally satisfiable and completes without
// re-sending.
func TestStaleGrantThenNACKLocalSatisfy(t *testing.T) {
	e := newMockEnv(4)
	a := addrspace.Line(8).Base()
	var got *uint64
	e.l1s[1].Access(&MemRequest{
		IsWrite: true, Addr: a, Value: 5,
		Done: func(_ *MemRequest, now uint64, v uint64) { vv := v; got = &vv },
	})
	// Intercept and drop the outgoing GetX so the home never replies.
	if len(e.wired) != 1 || e.wired[0].m.Type != MsgGetX {
		t.Fatalf("expected one GetX, have %+v", e.wired)
	}
	reqID := e.wired[0].m.ReqID
	e.wired = nil

	// A stale grant (different ReqID) installs M without completing.
	e.l1s[1].HandleWired(e.now, &Msg{Type: MsgDataM, Line: 8, ReqID: reqID + 100, HasData: true})
	if got != nil {
		t.Fatal("stale grant completed the pending request")
	}
	if ln := e.l1s[1].Cache().Lookup(8); ln == nil || ln.State != cache.Modified {
		t.Fatalf("stale grant not installed: %+v", ln)
	}

	// The matching NACK triggers a retry that resolves locally.
	e.l1s[1].HandleWired(e.now, &Msg{Type: MsgNACK, Line: 8, ReqID: reqID})
	e.pumpN(500)
	if got == nil {
		t.Fatal("NACK local-satisfy never completed the store")
	}
	if v := e.complete(t, 1, &MemRequest{Addr: a}); v != 5 {
		t.Fatalf("store lost: %d", v)
	}
}

// TestWDiscardResend stages Table II W->W case 2's fallback: a WDiscard
// matching the outstanding request forces a re-request as non-sharer
// (the normal case — local resolution via BrWirUpgr — is exercised by
// the integration tests; this covers the requester that lost its copy).
func TestWDiscardResend(t *testing.T) {
	e := newMockEnv(4)
	a := addrspace.Line(8).Base()
	var got *uint64
	e.l1s[1].Access(&MemRequest{
		IsWrite: true, Addr: a, Value: 9,
		Done: func(_ *MemRequest, now uint64, v uint64) { vv := v; got = &vv },
	})
	if len(e.wired) != 1 {
		t.Fatalf("expected one request, have %d", len(e.wired))
	}
	reqID := e.wired[0].m.ReqID
	e.wired = nil // drop the original request

	// A mismatched WDiscard is ignored.
	e.l1s[1].HandleWired(e.now, &Msg{Type: MsgWDiscard, Line: 8, ReqID: reqID + 7})
	if len(e.wired) != 0 {
		t.Fatal("stale WDiscard triggered a resend")
	}
	// The matching WDiscard resends as non-sharer.
	e.l1s[1].HandleWired(e.now, &Msg{Type: MsgWDiscard, Line: 8, ReqID: reqID})
	if len(e.wired) != 1 || e.wired[0].m.Type != MsgGetX || e.wired[0].m.IsSharer {
		t.Fatalf("expected non-sharer GetX resend, have %+v", e.wired)
	}
	e.pumpN(500)
	if got == nil {
		t.Fatal("request never completed after WDiscard resend")
	}
}

// TestNACKRetryResends covers the ordinary bounce-retry loop against a
// busy entry.
func TestNACKRetryResends(t *testing.T) {
	e := newMockEnv(4)
	a := addrspace.Line(8).Base()
	// Keep the entry busy with a memory fetch that never resolves:
	// strip every MC-bound message before each pump round.
	e.l1s[2].Access(&MemRequest{Addr: a, Done: func(*MemRequest, uint64, uint64) {}})
	var got *uint64
	e.l1s[1].Access(&MemRequest{Addr: a, Done: func(_ *MemRequest, now uint64, v uint64) { vv := v; got = &vv }})
	for i := 0; i < 300 && e.l1s[1].Stats.NACKs == 0; i++ {
		var kept []wiredMsg
		for _, wm := range e.wired {
			if wm.port != PortMC {
				kept = append(kept, wm)
			}
		}
		e.wired = kept
		e.pump()
	}
	if e.l1s[1].Stats.NACKs == 0 {
		t.Fatal("no NACK observed against a busy entry")
	}
	_ = got
}

// TestForwardWaitsBehindParkedFill pins the per-line order the home's
// blocking discipline relies on: a grant that parks behind a fully
// pinned set must be handled before a forward for the same line that
// arrives while it waits. Handled out of order, the forward finds no
// line and raises "forwarded request for a line this L1 does not hold".
func TestForwardWaitsBehindParkedFill(t *testing.T) {
	e := newMockEnv(4)
	l1 := NewL1(1, L1Config{
		Cache:    cache.Config{SizeBytes: 2 * addrspace.LineSize, Ways: 2}, // one set
		Protocol: WiDir, HitLatency: 1, RetryDelay: 16, UpdateCountMax: 3,
	}, e)
	e.l1s[1] = l1
	x, y, a := addrspace.Line(5), addrspace.Line(6), addrspace.Line(8)
	e.complete(t, 1, &MemRequest{Addr: x.Base()})
	e.complete(t, 1, &MemRequest{Addr: y.Base()})
	l1.Cache().Lookup(x).NonEvict = true
	l1.Cache().Lookup(y).NonEvict = true

	wrote := false
	l1.Access(&MemRequest{IsWrite: true, Addr: a.Base(), Value: 7,
		Done: func(*MemRequest, uint64, uint64) { wrote = true }})
	var read *uint64
	e.l1s[2].Access(&MemRequest{Addr: a.Base(),
		Done: func(_ *MemRequest, _ uint64, v uint64) { read = &v }})
	e.pumpN(200) // the grant parks; the home forwards core 2's read
	if e.protoErr != nil {
		t.Fatalf("forward overtook the parked fill: %v", e.protoErr)
	}
	if wrote || read != nil {
		t.Fatalf("requests finished behind a pinned set: wrote=%v read=%v", wrote, read != nil)
	}

	l1.Cache().Lookup(x).NonEvict = false
	for i := 0; i < 1000 && read == nil; i++ {
		e.pump()
	}
	if e.protoErr != nil {
		t.Fatalf("protocol error after unpinning: %v", e.protoErr)
	}
	if !wrote || read == nil || *read != 7 {
		t.Fatalf("after unpinning: wrote=%v read=%v, want the write done and 7 read", wrote, read)
	}
}
