package wireless

import (
	"testing"

	"repro/internal/addrspace"
	"repro/internal/xrand"
)

func newTestChannel() (*Channel[any], *[]Message[any]) {
	c := NewChannel[any](xrand.New(1))
	var got []Message[any]
	c.SetBroadcast(func(now uint64, msg Message[any]) { got = append(got, msg) })
	return c, &got
}

// cbs adapts test closures (either may be nil) to Callback.
type cbs struct {
	done  func(now uint64)
	abort func(now uint64, jammed bool)
}

func (f cbs) TxDone(now uint64) {
	if f.done != nil {
		f.done(now)
	}
}

func (f cbs) TxAborted(now uint64, jammed bool) {
	if f.abort != nil {
		f.abort(now, jammed)
	}
}

func pump(c *Channel[any], from, to uint64) uint64 {
	for now := from; now <= to; now++ {
		c.Tick(now)
	}
	return to
}

func TestSingleTransmission(t *testing.T) {
	c, got := newTestChannel()
	doneAt := uint64(0)
	c.Transmit(Message[any]{Sender: 1, Line: 10, Payload: "x"},
		cbs{done: func(now uint64) { doneAt = now }})
	pump(c, 1, 20)
	if len(*got) != 1 {
		t.Fatalf("deliveries = %d", len(*got))
	}
	if doneAt == 0 {
		t.Fatal("done never fired")
	}
	// Transfer + collision-detect cycles after the start.
	if doneAt < TransferCycles+CollisionDetectCycles {
		t.Fatalf("done too early at %d", doneAt)
	}
	if c.Successes.Value() != 1 || c.Collisions.Value() != 0 {
		t.Fatal("stats wrong")
	}
}

func TestCollisionThenBackoffResolves(t *testing.T) {
	c, got := newTestChannel()
	for i := 0; i < 4; i++ {
		c.Transmit(Message[any]{Sender: i, Line: addrspace.Line(i), Payload: i}, nil)
	}
	pump(c, 1, 500)
	if len(*got) != 4 {
		t.Fatalf("deliveries = %d, want 4", len(*got))
	}
	if c.Collisions.Value() == 0 {
		t.Fatal("simultaneous starters did not collide")
	}
	if c.CollisionProbability() <= 0 || c.CollisionProbability() >= 1 {
		t.Fatalf("collision probability = %v", c.CollisionProbability())
	}
}

func TestSerialization(t *testing.T) {
	// At most one transmission may occupy the medium; deliveries are
	// therefore spaced by at least the packet length.
	c := NewChannel[any](xrand.New(7))
	var times []uint64
	c.SetBroadcast(func(now uint64, msg Message[any]) { times = append(times, now) })
	for i := 0; i < 6; i++ {
		c.Transmit(Message[any]{Sender: i, Line: 5, Payload: i}, nil)
	}
	pump(c, 1, 2000)
	if len(times) != 6 {
		t.Fatalf("deliveries = %d", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] < TransferCycles+CollisionDetectCycles {
			t.Fatalf("overlapping transmissions: %v", times)
		}
	}
}

func TestJamAbortsUnprivileged(t *testing.T) {
	c, got := newTestChannel()
	c.Jam(10, 3)
	aborted := false
	jammedFlag := false
	c.Transmit(Message[any]{Sender: 1, Line: 10, Payload: "x"},
		cbs{abort: func(now uint64, jammed bool) { aborted, jammedFlag = true, jammed }})
	pump(c, 1, 50)
	if !aborted || !jammedFlag {
		t.Fatal("jammed transmission was not aborted")
	}
	if len(*got) != 0 {
		t.Fatal("jammed transmission delivered")
	}
	if c.Jams.Value() != 1 {
		t.Fatalf("jam count = %d", c.Jams.Value())
	}
}

func TestJamPassesPrivileged(t *testing.T) {
	c, got := newTestChannel()
	c.Jam(10, 3)
	c.Transmit(Message[any]{Sender: 3, Line: 10, Payload: "dir", Privileged: true},
		cbs{abort: func(uint64, bool) { t.Fatal("privileged broadcast aborted") }})
	pump(c, 1, 50)
	if len(*got) != 1 {
		t.Fatal("privileged broadcast did not deliver")
	}
}

func TestJamOtherLinePasses(t *testing.T) {
	c, got := newTestChannel()
	c.Jam(10, 3)
	c.Transmit(Message[any]{Sender: 1, Line: 11, Payload: "y"},
		cbs{abort: func(uint64, bool) { t.Fatal("unrelated line aborted") }})
	pump(c, 1, 50)
	if len(*got) != 1 {
		t.Fatal("unrelated line did not deliver")
	}
}

func TestJamRefcounting(t *testing.T) {
	c, _ := newTestChannel()
	c.Jam(10, 3)
	c.Jam(10, 3)
	c.Unjam(10, 3)
	if !c.JammedFor(10) {
		t.Fatal("jam released too early")
	}
	c.Unjam(10, 3)
	if c.JammedFor(10) {
		t.Fatal("jam not released")
	}
}

func TestJamTwoOwnersPanics(t *testing.T) {
	c, _ := newTestChannel()
	c.Jam(10, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("second owner did not panic")
		}
	}()
	c.Jam(10, 4)
}

func TestUnjamUnownedPanics(t *testing.T) {
	c, _ := newTestChannel()
	defer func() {
		if recover() == nil {
			t.Fatal("unjam of free line did not panic")
		}
	}()
	c.Unjam(10, 1)
}

// runFunc adapts a test closure to engine.Runner.
type runFunc func(now uint64)

func (f runFunc) Run(now uint64) { f(now) }

func TestToneAck(t *testing.T) {
	c, _ := newTestChannel()
	fired := uint64(0)
	c.RaiseTone()
	c.RaiseTone()
	c.WaitToneSilent(runFunc(func(now uint64) { fired = now }))
	pump(c, 1, 5)
	if fired != 0 {
		t.Fatal("tone waiter fired while held")
	}
	c.LowerTone()
	pump(c, 6, 10)
	if fired != 0 {
		t.Fatal("tone waiter fired with one holder left")
	}
	c.LowerTone()
	pump(c, 11, 15)
	if fired == 0 {
		t.Fatal("tone waiter never fired")
	}
}

func TestToneImmediateWhenSilent(t *testing.T) {
	c, _ := newTestChannel()
	fired := false
	c.WaitToneSilent(runFunc(func(uint64) { fired = true }))
	pump(c, 1, 2)
	if !fired {
		t.Fatal("waiter on silent channel did not fire")
	}
}

func TestToneUnderflowPanics(t *testing.T) {
	c, _ := newTestChannel()
	defer func() {
		if recover() == nil {
			t.Fatal("tone underflow did not panic")
		}
	}()
	c.LowerTone()
}

func TestCancelQueued(t *testing.T) {
	c, got := newTestChannel()
	// Occupy the medium so the second request stays queued.
	c.Transmit(Message[any]{Sender: 0, Line: 1, Payload: "a"}, nil)
	tx := c.Transmit(Message[any]{Sender: 1, Line: 2, Payload: "b"}, nil)
	c.Tick(1) // first becomes active
	if !c.Cancel(tx) {
		t.Fatal("cancel of queued request failed")
	}
	pump(c, 2, 100)
	if len(*got) != 1 {
		t.Fatalf("deliveries = %d, want only the first", len(*got))
	}
}

func TestCancelActiveFails(t *testing.T) {
	c, got := newTestChannel()
	tx := c.Transmit(Message[any]{Sender: 0, Line: 1, Payload: "a"}, nil)
	c.Tick(1) // becomes active
	if c.Cancel(tx) {
		t.Fatal("cancel of active transmission succeeded")
	}
	pump(c, 2, 20)
	if len(*got) != 1 {
		t.Fatal("active transmission did not deliver")
	}
}

func TestActiveOn(t *testing.T) {
	c, _ := newTestChannel()
	c.Transmit(Message[any]{Sender: 0, Line: 42, Payload: "a"}, nil)
	c.Tick(1)
	if !c.ActiveOn(42) {
		t.Fatal("ActiveOn missed the active line")
	}
	if c.ActiveOn(43) {
		t.Fatal("ActiveOn false positive")
	}
	pump(c, 2, 20)
	if c.ActiveOn(42) {
		t.Fatal("ActiveOn after completion")
	}
}

func TestIdle(t *testing.T) {
	c, _ := newTestChannel()
	if !c.Idle() {
		t.Fatal("fresh channel not idle")
	}
	c.Transmit(Message[any]{Sender: 0, Line: 1}, nil)
	if c.Idle() {
		t.Fatal("queued channel idle")
	}
	pump(c, 1, 20)
	if !c.Idle() {
		t.Fatal("drained channel not idle")
	}
	c.RaiseTone()
	if c.Idle() {
		t.Fatal("tone-held channel idle")
	}
	c.LowerTone()
}

func TestBusyCyclesCounted(t *testing.T) {
	c, _ := newTestChannel()
	c.Transmit(Message[any]{Sender: 0, Line: 1}, nil)
	pump(c, 1, 20)
	if c.BusyCycles.Value() == 0 {
		t.Fatal("busy cycles not counted")
	}
}

func TestManyContendersAllDeliver(t *testing.T) {
	c, got := newTestChannel()
	const n = 32
	for i := 0; i < n; i++ {
		c.Transmit(Message[any]{Sender: i, Line: addrspace.Line(i % 4), Payload: i}, nil)
	}
	pump(c, 1, 20000)
	if len(*got) != n {
		t.Fatalf("deliveries = %d, want %d", len(*got), n)
	}
	// Every sender delivered exactly once.
	seen := map[int]bool{}
	for _, m := range *got {
		if seen[m.Payload.(int)] {
			t.Fatal("duplicate delivery")
		}
		seen[m.Payload.(int)] = true
	}
}

func TestTokenMACDeliversWithoutCollisions(t *testing.T) {
	c := NewChannel[any](xrand.New(3))
	c.Mac = MACToken
	c.Nodes = 8
	var got []Message[any]
	c.SetBroadcast(func(now uint64, msg Message[any]) { got = append(got, msg) })
	for i := 0; i < 8; i++ {
		c.Transmit(Message[any]{Sender: i, Line: addrspace.Line(i), Payload: i}, nil)
	}
	pump(c, 1, 2000)
	if len(got) != 8 {
		t.Fatalf("deliveries = %d", len(got))
	}
	if c.Collisions.Value() != 0 {
		t.Fatalf("token MAC collided %d times", c.Collisions.Value())
	}
}

func TestTokenMACRespectsJam(t *testing.T) {
	c := NewChannel[any](xrand.New(3))
	c.Mac = MACToken
	c.Nodes = 4
	var got []Message[any]
	c.SetBroadcast(func(now uint64, msg Message[any]) { got = append(got, msg) })
	c.Jam(10, 2)
	aborted := false
	c.Transmit(Message[any]{Sender: 1, Line: 10, Payload: "x"},
		cbs{abort: func(uint64, bool) { aborted = true }})
	pump(c, 1, 100)
	if !aborted || len(got) != 0 {
		t.Fatal("token MAC ignored jamming")
	}
}

// corruptFirstN returns a FaultCorrupt hook that corrupts the first n
// completed transmissions and passes the rest.
func corruptFirstN(n int) func(Message[any]) bool {
	return func(Message[any]) bool {
		n--
		return n >= 0
	}
}

func TestFaultCorruptRetriesThenDelivers(t *testing.T) {
	c, got := newTestChannel()
	c.FaultCorrupt = corruptFirstN(2)
	var faults []bool
	c.OnTxFault = func(now uint64, msg Message[any], exhausted bool) {
		faults = append(faults, exhausted)
	}
	doneCount := 0
	c.Transmit(Message[any]{Sender: 1, Line: 10, Payload: "x"},
		cbs{done: func(uint64) { doneCount++ }})
	pump(c, 1, 500)
	if len(*got) != 1 || doneCount != 1 {
		t.Fatalf("deliveries = %d, done = %d, want 1/1", len(*got), doneCount)
	}
	if c.Corrupted.Value() != 2 || c.Successes.Value() != 1 {
		t.Fatalf("corrupted = %d, successes = %d", c.Corrupted.Value(), c.Successes.Value())
	}
	if len(faults) != 2 || faults[0] || faults[1] {
		t.Fatalf("OnTxFault calls = %v, want two non-exhausted", faults)
	}
	if c.TxFailures.Value() != 0 {
		t.Fatal("retryable faults counted as failures")
	}
}

func TestFaultExhaustionAborts(t *testing.T) {
	c, got := newTestChannel()
	c.FaultCorrupt = func(Message[any]) bool { return true }
	c.MaxTries = 3
	sawExhausted := false
	c.OnTxFault = func(now uint64, msg Message[any], exhausted bool) {
		if exhausted {
			sawExhausted = true
		}
	}
	aborted, jammedFlag := false, true
	c.Transmit(Message[any]{Sender: 1, Line: 10, Payload: "x"}, cbs{
		done:  func(uint64) { t.Fatal("done fired on a corrupted transmission") },
		abort: func(now uint64, jammed bool) { aborted, jammedFlag = true, jammed },
	})
	pump(c, 1, 2000)
	if !aborted {
		t.Fatal("sender never gave up")
	}
	if jammedFlag {
		t.Fatal("fault abort reported as a jam")
	}
	if len(*got) != 0 {
		t.Fatal("corrupted transmission delivered")
	}
	if c.Corrupted.Value() != 3 || c.TxFailures.Value() != 1 {
		t.Fatalf("corrupted = %d, failures = %d, want 3/1",
			c.Corrupted.Value(), c.TxFailures.Value())
	}
	if !sawExhausted {
		t.Fatal("OnTxFault never reported exhaustion")
	}
}

func TestFaultPrivilegedRetriesUnbounded(t *testing.T) {
	c, got := newTestChannel()
	c.MaxTries = 2
	c.FaultCorrupt = corruptFirstN(10) // well past MaxTries
	c.Transmit(Message[any]{Sender: 3, Line: 10, Payload: "dir", Privileged: true},
		cbs{abort: func(uint64, bool) { t.Fatal("privileged broadcast gave up") }})
	pump(c, 1, 5000)
	if len(*got) != 1 {
		t.Fatal("privileged broadcast never delivered through faults")
	}
	if c.Corrupted.Value() != 10 {
		t.Fatalf("corrupted = %d, want 10", c.Corrupted.Value())
	}
}

func TestFaultRequeuedCancelWorks(t *testing.T) {
	c, got := newTestChannel()
	c.FaultCorrupt = corruptFirstN(1)
	tx := c.Transmit(Message[any]{Sender: 1, Line: 10, Payload: "x"}, nil)
	// Run until the corruption re-queues the request, then withdraw it.
	for now := uint64(1); c.Corrupted.Value() == 0; now++ {
		c.Tick(now)
		if now > 100 {
			t.Fatal("corruption never drawn")
		}
	}
	if !c.Cancel(tx) {
		t.Fatal("cancel of a fault-requeued request failed")
	}
	pump(c, 101, 300)
	if len(*got) != 0 {
		t.Fatal("cancelled request delivered")
	}
}

// TestJamNestedCompetingOwners covers nested jams with a competing
// owner: the loser panics at every nesting depth, and only full
// release by the first owner frees the line for the second.
func TestJamNestedCompetingOwners(t *testing.T) {
	c, _ := newTestChannel()
	c.Jam(10, 3)
	c.Jam(10, 3) // nested by the same owner: fine
	mustPanic := func(fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		fn()
	}
	mustPanic(func() { c.Jam(10, 4) })   // competing jam while nested
	mustPanic(func() { c.Unjam(10, 4) }) // competing unjam while nested
	c.Unjam(10, 3)
	mustPanic(func() { c.Jam(10, 4) }) // still one reference held
	c.Unjam(10, 3)
	c.Jam(10, 4) // fully released: new owner may protect the line
	if !c.JammedFor(10) {
		t.Fatal("second owner's jam not in effect")
	}
	c.Unjam(10, 4)
}

// TestWaitToneSilentAlreadySilent pins the already-silent fast path:
// waiters registered on a silent channel fire on the next Tick, in
// registration order, and a waiter registered inside a firing callback
// waits for the following Tick rather than running recursively.
func TestWaitToneSilentAlreadySilent(t *testing.T) {
	c, _ := newTestChannel()
	var order []int
	c.WaitToneSilent(runFunc(func(uint64) { order = append(order, 1) }))
	c.WaitToneSilent(runFunc(func(now uint64) {
		order = append(order, 2)
		c.WaitToneSilent(runFunc(func(uint64) { order = append(order, 3) }))
	}))
	c.Tick(1)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("first Tick fired %v, want [1 2]", order)
	}
	c.Tick(2)
	if len(order) != 3 || order[2] != 3 {
		t.Fatalf("nested waiter outcome %v, want [1 2 3]", order)
	}
}

// TestFaultCollisionJamInteraction drives colliding senders, a jammed
// line, and injected corruption at once: the jammed sender must abort
// with jammed=true, everyone else must eventually deliver exactly
// once, and the collision/corruption retries must not duplicate or
// lose any transmission.
func TestFaultCollisionJamInteraction(t *testing.T) {
	c, got := newTestChannel()
	c.FaultCorrupt = corruptFirstN(3)
	c.Jam(99, 7)
	jamAborts := 0
	c.Transmit(Message[any]{Sender: 0, Line: 99, Payload: "jammed"}, cbs{
		abort: func(now uint64, jammed bool) {
			if !jammed {
				t.Fatal("jam abort flagged as fault")
			}
			jamAborts++
		},
	})
	for i := 1; i <= 4; i++ {
		c.Transmit(Message[any]{Sender: i, Line: addrspace.Line(i), Payload: i},
			cbs{abort: func(uint64, bool) { t.Fatal("clean-line sender aborted") }})
	}
	pump(c, 1, 5000)
	if jamAborts != 1 {
		t.Fatalf("jam aborts = %d, want 1", jamAborts)
	}
	if len(*got) != 4 {
		t.Fatalf("deliveries = %d, want 4", len(*got))
	}
	seen := map[int]bool{}
	for _, m := range *got {
		if m.Line == 99 {
			t.Fatal("jammed line delivered")
		}
		if seen[m.Payload.(int)] {
			t.Fatal("duplicate delivery")
		}
		seen[m.Payload.(int)] = true
	}
	if c.Collisions.Value() == 0 {
		t.Fatal("same-cycle starters did not collide")
	}
	if c.Corrupted.Value() != 3 {
		t.Fatalf("corrupted = %d, want 3", c.Corrupted.Value())
	}
}

func TestTokenMACRoundRobinFair(t *testing.T) {
	c := NewChannel[any](xrand.New(3))
	c.Mac = MACToken
	c.Nodes = 4
	var order []int
	c.SetBroadcast(func(now uint64, msg Message[any]) { order = append(order, msg.Sender) })
	// All four nodes queue; the token visits them in index order.
	for i := 0; i < 4; i++ {
		c.Transmit(Message[any]{Sender: i, Line: addrspace.Line(i), Payload: i}, nil)
	}
	pump(c, 1, 200)
	if len(order) != 4 {
		t.Fatalf("deliveries = %d", len(order))
	}
	for i := 1; i < 4; i++ {
		if order[i] != (order[0]+i)%4 {
			t.Fatalf("token order not round-robin: %v", order)
		}
	}
}

// TestCancelStaleHandle pins the handle semantics of recycled
// requests: once a transmission has delivered, its handle cancels
// nothing, even after the request record is reused for a later
// broadcast that is still queued.
func TestCancelStaleHandle(t *testing.T) {
	c, got := newTestChannel()
	first := c.Transmit(Message[any]{Sender: 0, Line: 1, Payload: "a"}, nil)
	pump(c, 1, 20)
	c.Transmit(Message[any]{Sender: 0, Line: 2, Payload: "b"}, nil) // reuses the record
	if c.Cancel(first) {
		t.Fatal("a delivered transmission's handle canceled a later request")
	}
	pump(c, 21, 40)
	if len(*got) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(*got))
	}
}
