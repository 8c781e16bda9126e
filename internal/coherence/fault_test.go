package coherence

import (
	"strings"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/cache"
)

// wirelessLine drives four readers through the S->W transition and
// returns the (W-state) line.
func wirelessLine(t *testing.T, e *mockEnv) addrspace.Line {
	t.Helper()
	a := addrspace.Line(8).Base()
	for core := 0; core < 4; core++ {
		e.complete(t, core, &MemRequest{Addr: a})
	}
	e.pumpN(50)
	if st := e.home(8).Entry(8).State; st != DirWireless {
		t.Fatalf("setup: directory state %v, want DW", st)
	}
	return 8
}

func TestFaultDemotionWToS(t *testing.T) {
	e := newMockEnv(6)
	line := wirelessLine(t, e)
	h := e.home(line)

	// Three consecutive failures: below the default threshold of 4.
	for i := 0; i < 3; i++ {
		h.NoteWirelessFault(e.now, line)
	}
	if got := h.Stats.FaultDemotions; got != 0 {
		t.Fatalf("demoted after 3 failures (threshold 4): %d", got)
	}
	if st := h.Entry(line).State; st != DirWireless {
		t.Fatalf("state %v after 3 failures, want DW", st)
	}

	// The fourth gives up on the wireless medium for the line.
	h.NoteWirelessFault(e.now, line)
	if got := h.Stats.FaultDemotions; got != 1 {
		t.Fatalf("FaultDemotions = %d, want 1", got)
	}
	e.pumpN(100)
	entry := h.Entry(line)
	if entry.State != DirShared {
		t.Fatalf("directory state %v, want DS after fault demotion", entry.State)
	}
	if got := h.Stats.WToS; got != 1 {
		t.Fatalf("WToS = %d, want 1", got)
	}
	for _, s := range entry.Sharers {
		ln := e.l1s[s].Cache().Lookup(line)
		if ln == nil || ln.State != cache.Shared {
			t.Fatalf("recorded sharer %d not in S: %+v", s, ln)
		}
	}
	if e.protoErr != nil {
		t.Fatalf("unexpected protocol error: %v", e.protoErr)
	}
}

func TestFaultCounterResetsOnDelivery(t *testing.T) {
	e := newMockEnv(6)
	line := wirelessLine(t, e)
	h := e.home(line)
	a := line.Base()

	for i := 0; i < 3; i++ {
		h.NoteWirelessFault(e.now, line)
	}
	// A wireless write that does get through proves the medium works
	// again; the consecutive-failure count restarts.
	e.complete(t, 0, &MemRequest{IsWrite: true, Addr: a, Value: 42})
	e.pumpN(20)
	for i := 0; i < 3; i++ {
		h.NoteWirelessFault(e.now, line)
	}
	if got := h.Stats.FaultDemotions; got != 0 {
		t.Fatalf("demoted despite successful delivery in between: %d", got)
	}
	if st := h.Entry(line).State; st != DirWireless {
		t.Fatalf("state %v, want DW (no demotion)", st)
	}
}

func TestFaultDemotionDeferredWhileBusy(t *testing.T) {
	e := newMockEnv(6)
	line := wirelessLine(t, e)
	h := e.home(line)

	// Force the entry busy by hand: a demotion must not start under a
	// live transaction (the W->S machinery assumes a quiet entry).
	entry := h.Entry(line)
	entry.busy = &txn{kind: txSToW, started: e.now}
	for i := 0; i < 6; i++ {
		h.NoteWirelessFault(e.now, line)
	}
	if got := h.Stats.FaultDemotions; got != 0 {
		t.Fatalf("demoted while busy: %d", got)
	}
	entry.busy = nil
	h.NoteWirelessFault(e.now, line)
	if got := h.Stats.FaultDemotions; got != 1 {
		t.Fatalf("FaultDemotions = %d after entry went quiet, want 1", got)
	}
}

func TestStrayAckReportsProtocolError(t *testing.T) {
	e := newMockEnv(4)
	// Line 12 homes at node 0; no transaction is open for it.
	e.homes[0].HandleWired(1, &Msg{Type: MsgInvAck, Line: 12, Src: 1})
	pe := e.protoErr
	if pe == nil {
		t.Fatal("stray InvAck did not report a protocol error")
	}
	if pe.Ctrl != "home" || pe.Node != 0 || pe.Line != 12 {
		t.Fatalf("error names %s %d line=%#x, want home 0 line=0xc", pe.Ctrl, pe.Node, pe.Line)
	}
	if !strings.Contains(pe.Error(), "no transaction") {
		t.Fatalf("error text %q lacks the reason", pe.Error())
	}
}

func TestUnexpectedAckKindReportsProtocolError(t *testing.T) {
	e := newMockEnv(4)
	line := addrspace.Line(12) // homes at node 0
	h := e.homes[0]
	e.complete(t, 1, &MemRequest{Addr: line.Base()})
	// Open a real transaction, then feed it the wrong ack kind.
	h.Entry(line).busy = &txn{kind: txFetchMem, started: e.now}
	h.HandleWired(e.now, &Msg{Type: MsgXferAck, Line: line, Src: 2})
	pe := e.protoErr
	if pe == nil {
		t.Fatal("XferAck during fetch-mem did not report a protocol error")
	}
	if !strings.Contains(pe.Reason, "unexpected XferAck") || !strings.Contains(pe.Reason, "fetch-mem") {
		t.Fatalf("reason %q should name the ack and the transaction kind", pe.Reason)
	}
	if !strings.Contains(pe.Dump, "entry line=") {
		t.Fatalf("dump %q lacks the entry state", pe.Dump)
	}
}

func TestOldestPendingNamesStuckRequest(t *testing.T) {
	e := newMockEnv(4)
	if _, ok := e.l1s[1].OldestPending(); ok {
		t.Fatal("quiet L1 reported a pending transaction")
	}
	e.now = 7
	e.l1s[1].Access(&MemRequest{Addr: addrspace.Line(8).Base(), Done: func(*MemRequest, uint64, uint64) {}})
	info, ok := e.l1s[1].OldestPending()
	if !ok {
		t.Fatal("outstanding miss not reported")
	}
	if info.Ctrl != "l1" || info.Node != 1 || info.Line != 8 || info.Kind != "load" {
		t.Fatalf("info = %+v", info)
	}
	if info.Started != 7 || info.Age(107) != 100 {
		t.Fatalf("started=%d age=%d, want 7 and 100", info.Started, info.Age(107))
	}
	if len(info.Waiting) != 1 || info.Waiting[0] != e.HomeOf(8) {
		t.Fatalf("waiting on %v, want the home slice", info.Waiting)
	}
}

func TestTxnInfoOlder(t *testing.T) {
	a := TxnInfo{Started: 5, Ctrl: "home", Node: 1, Line: 8}
	b := TxnInfo{Started: 9, Ctrl: "home", Node: 1, Line: 8}
	if !a.Older(b) || b.Older(a) {
		t.Fatal("lower Started must win")
	}
	// Ties break on (ctrl, node, line) so the watchdog's pick is stable.
	c := TxnInfo{Started: 5, Ctrl: "l1", Node: 0, Line: 4}
	if !a.Older(c) || c.Older(a) {
		t.Fatal("home must order before l1 on equal age")
	}
	d := a
	if a.Older(d) || d.Older(a) {
		t.Fatal("identical infos must not order")
	}
}
