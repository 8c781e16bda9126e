// Package wireless implements the Wireless NoC: a single shared data
// channel with the BRS MAC protocol (carrier sense, one preamble cycle,
// one collision-detection cycle, exponential backoff on collision) plus
// the two WiDir protocol primitives — Selective Data-Channel Jamming and
// the Tone-Channel Acknowledgment — and the collision statistics the
// paper reports in Table VI.
//
// Timing follows Table III: a successful data-channel packet occupies
// the medium for TransferCycles+CollisionDetectCycles cycles (4+1); the
// tone channel has a 1-cycle latency. A collision or a jam wastes the
// preamble and detection cycles, after which each loser retries after a
// random exponential backoff.
package wireless

import (
	"repro/internal/addrspace"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Channel timing (Table III).
const (
	TransferCycles        = 4
	CollisionDetectCycles = 1
	AbortCycles           = 2 // preamble + collision-detect on a failed start
	ToneLatency           = 1
)

// Message is one broadcast on the data channel. Line identifies the
// cache line the message concerns (used by jamming); Payload is the
// protocol message, carried by value: the channel keeps its own copy
// from Transmit to delivery, so nothing it holds points into a
// sender's state.
type Message[P any] struct {
	Sender  int
	Line    addrspace.Line
	Payload P
	// Privileged marks a directory's own protocol broadcast (BrWirUpgr,
	// WirDwgr, WirInv): it passes through that directory's jam on the
	// line. A node's core traffic is never privileged.
	Privileged bool
}

// BroadcastFunc delivers a successful transmission to every node. It is
// called once per transmission; the machine fans it out.
type BroadcastFunc[P any] func(now uint64, msg Message[P])

// Callback receives the outcome of one transmission. Senders pass a
// pooled record that implements it, so queueing a broadcast allocates
// no closures.
type Callback interface {
	// TxDone tells the sender its transmission is guaranteed to succeed
	// (the collision-detect cycle passed clean). Per §IV-C this is the
	// serialization point: local state changes only happen here. The
	// broadcast is delivered right after TxDone returns.
	TxDone(now uint64)
	// TxAborted tells the sender its transmission was jammed
	// (jammed=true) or abandoned after its fault retries; the sender
	// decides whether to retry or fall back to the wired path.
	TxAborted(now uint64, jammed bool)
}

type txRequest[P any] struct {
	msg     Message[P]
	cb      Callback
	retryAt uint64 // earliest cycle this node may attempt again
	tries   int
	seq     uint64 // the handle Transmit returned; unique per request
}

// MAC selects the medium-access protocol of the data channel.
type MAC uint8

// The MAC protocols. BRS (the paper's default) is carrier-sense with a
// collision-detect cycle and exponential backoff; Token passes a
// virtual token round-robin — collision-free, but a waiting sender pays
// up to a full token rotation of latency. The paper notes "practically
// any other WNoC MAC protocol could be used"; the ablation benchmark
// compares the two.
const (
	MACBRS MAC = iota
	MACToken
)

// String names the protocol.
func (m MAC) String() string {
	if m == MACToken {
		return "Token"
	}
	return "BRS"
}

// Channel is the shared wireless medium for one machine, carrying
// payloads of type P.
type Channel[P any] struct {
	rng   *xrand.Source
	onAir BroadcastFunc[P]

	// MAC protocol; BRS by default. Nodes must be set for MACToken.
	Mac   MAC
	Nodes int
	token int // current token holder (MACToken)

	busyUntil uint64
	queue     []*txRequest[P] // pending requests across all nodes
	seq       uint64
	starters  []*txRequest[P]         // Tick scratch: same-cycle starters, queue order
	reqFree   pool.Free[txRequest[P]] // finished requests, recycled by Transmit

	// Active transmission (already started, completes at busyUntil).
	active *txRequest[P]

	// Jamming registry: lines the directory controllers are currently
	// protecting. A transmission for a jammed line is aborted in its
	// collision-detect cycle exactly as if a collision occurred — except
	// transmissions by the jamming node itself (the directory's own
	// protocol broadcasts must get through).
	jammed map[addrspace.Line]jamInfo

	// Tone channel: count of nodes currently holding the tone.
	// toneSpare is the second buffer Tick swaps in while it fires the
	// waiters, so registering waiters allocates nothing once warm.
	toneHolds   int
	toneWaiters []engine.Runner
	toneSpare   []engine.Runner

	// Trace receives MAC-level events (slot grants, collisions, jams,
	// tone silence); nil disables emission.
	Trace obs.Sink

	// FaultCorrupt, when non-nil, draws whether one completed
	// transmission was corrupted in flight (injected channel faults,
	// modeled BER): every receiver's CRC fails, nobody merges the
	// payload, and the sender — which observed no acknowledgment —
	// retries after an exponential backoff. Called once per completed
	// transmission, in completion order, so a seeded drawer keeps the
	// faulty run deterministic.
	FaultCorrupt func(msg Message[P]) bool

	// OnTxFault observes every corrupted transmission (after the retry
	// decision): exhausted reports that the sender gave up. The machine
	// routes these to the line's home directory, which demotes W lines
	// after sustained failures.
	OnTxFault func(now uint64, msg Message[P], exhausted bool)

	// MaxTries bounds an unprivileged sender's attempts (collisions and
	// corruptions combined) before it aborts and falls back to the wired
	// path. Privileged directory broadcasts retry without bound: the
	// protocol cannot abandon them without wedging the transaction.
	MaxTries int

	// Stats for Table VI and Fig. 9.
	Attempts   stats.Counter // transmission starts (first cycle sent)
	Collisions stats.Counter // starts aborted by a same-cycle collision
	Jams       stats.Counter // starts aborted by jamming
	Successes  stats.Counter
	BusyCycles stats.Counter // medium-occupied cycles (energy: TX+RX)
	ToneCycles stats.Counter // cycles with at least one tone holder
	Corrupted  stats.Counter // transmissions lost to injected faults
	TxFailures stats.Counter // senders that exhausted their retries
}

// NewChannel returns an idle channel using rng for backoff draws.
func NewChannel[P any](rng *xrand.Source) *Channel[P] {
	return &Channel[P]{
		rng:      rng,
		jammed:   make(map[addrspace.Line]jamInfo),
		MaxTries: 8,
	}
}

// Transmit queues a broadcast from a node and returns its handle for
// Cancel. cb (nil for none) learns when the transmission is guaranteed
// to succeed (the serialization point) or is aborted; collisions retry
// internally and are invisible to the sender.
func (c *Channel[P]) Transmit(msg Message[P], cb Callback) (tx uint64) {
	c.seq++
	req := c.reqFree.Get()
	*req = txRequest[P]{msg: msg, cb: cb, seq: c.seq}
	c.queue = append(c.queue, req)
	return req.seq
}

// Cancel withdraws the queued request with handle tx. It reports false
// when the transmission has already won the medium (it will deliver)
// or has finished.
func (c *Channel[P]) Cancel(tx uint64) bool {
	for i, q := range c.queue {
		if q.seq == tx {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			c.release(q)
			return true
		}
	}
	return false
}

// release recycles a request the channel no longer references.
func (c *Channel[P]) release(r *txRequest[P]) {
	*r = txRequest[P]{}
	c.reqFree.Put(r)
}

// SetBroadcast registers the delivery fan-out callback.
func (c *Channel[P]) SetBroadcast(fn BroadcastFunc[P]) { c.onAir = fn }

type jamInfo struct {
	owner int
	refs  int
}

// Jam begins protecting a line on behalf of owner (the node whose
// directory is running a transaction): any transmission for it from
// another node is rejected with a forced negative-ack. Jams nest; each
// Jam needs an Unjam. Only one owner may protect a line at a time,
// which holds by construction — a line has one home directory.
func (c *Channel[P]) Jam(l addrspace.Line, owner int) {
	j, ok := c.jammed[l]
	if !ok {
		c.jammed[l] = jamInfo{owner: owner, refs: 1}
		return
	}
	if j.owner != owner {
		panic("wireless: line jammed by two owners")
	}
	j.refs++
	c.jammed[l] = j
}

// Unjam releases one jamming reference for the line.
func (c *Channel[P]) Unjam(l addrspace.Line, owner int) {
	j, ok := c.jammed[l]
	if !ok || j.owner != owner {
		panic("wireless: unjam of line that is not jammed by this owner")
	}
	j.refs--
	if j.refs == 0 {
		delete(c.jammed, l)
		return
	}
	c.jammed[l] = j
}

// JammedFor reports whether an unprivileged transmission for the line
// would be rejected.
func (c *Channel[P]) JammedFor(l addrspace.Line) bool {
	_, ok := c.jammed[l]
	return ok
}

// RaiseTone adds one tone holder (a node that has not finished its part
// of a global acknowledgment).
func (c *Channel[P]) RaiseTone() { c.toneHolds++ }

// LowerTone removes one tone holder.
func (c *Channel[P]) LowerTone() {
	if c.toneHolds == 0 {
		panic("wireless: tone lowered below zero")
	}
	c.toneHolds--
}

// ToneHolds returns the current number of holders.
func (c *Channel[P]) ToneHolds() int { return c.toneHolds }

// WaitToneSilent registers r to run one tone-latency cycle after the
// tone channel next falls silent (or immediately next Tick if already
// silent). Used by the initiating directory in a ToneAck operation;
// waiters fire in registration order, and r is typically a pooled
// record, so registering allocates nothing once warm.
func (c *Channel[P]) WaitToneSilent(r engine.Runner) {
	c.toneWaiters = append(c.toneWaiters, r)
}

// Busy reports whether the data channel is occupied at cycle now.
func (c *Channel[P]) Busy(now uint64) bool { return now < c.busyUntil }

// ActiveOn reports whether a transmission concerning the line is
// currently on the air (past its collision-detect cycle, guaranteed to
// deliver). Directories must not snapshot or transfer the line's data
// while this holds, since the in-flight update will merge imminently.
func (c *Channel[P]) ActiveOn(l addrspace.Line) bool {
	return c.active != nil && c.active.msg.Line == l
}

// Idle reports whether the channel has no queued or active work and no
// tone activity; the machine uses it to skip work.
func (c *Channel[P]) Idle() bool {
	return c.active == nil && len(c.queue) == 0 && c.toneHolds == 0 && len(c.toneWaiters) == 0
}

// never is the NextWake sentinel for "no self-scheduled progress".
const never = ^uint64(0)

// NextWake returns the earliest cycle > now at which Tick would do
// something beyond statistics accrual: complete the active
// transmission, fire tone waiters, or attempt a transmission start.
// Statistics for skipped cycles are settled by FastForward. Returns
// never when the channel cannot make progress without external input.
func (c *Channel[P]) NextWake(now uint64) uint64 {
	wake := never
	if c.active != nil {
		// Completion fires on the first tick with now >= busyUntil.
		wake = c.busyUntil
		if wake <= now {
			wake = now + 1
		}
	}
	if c.toneHolds == 0 && len(c.toneWaiters) > 0 {
		return now + 1
	}
	if c.active == nil && len(c.queue) > 0 {
		// A start attempt happens once the medium frees up and (BRS)
		// some sender's backoff has expired; Token arbitration ignores
		// retryAt and always rotates to a winner in one tick.
		start := now + 1
		if c.busyUntil > start {
			start = c.busyUntil
		}
		if c.Mac != MACToken {
			minRetry := never
			for _, r := range c.queue {
				if r.retryAt < minRetry {
					minRetry = r.retryAt
				}
			}
			if minRetry > start {
				start = minRetry
			}
		}
		if start < wake {
			wake = start
		}
	}
	return wake
}

// FastForward settles per-cycle statistics for the skipped cycles in
// the open interval (from, to): the machine ticked cycle from, will
// tick cycle to, and jumped over everything between. Mirrors exactly
// the counters Tick accrues on cycles where nothing completes, starts,
// or fires. Call only when the machine would have ticked those cycles
// (i.e. the channel is not Idle), matching the run loop's gate.
func (c *Channel[P]) FastForward(from, to uint64) {
	if to <= from+1 {
		return
	}
	skipped := to - from - 1
	if c.busyUntil > from+1 {
		busy := c.busyUntil - from - 1
		if busy > skipped {
			busy = skipped
		}
		c.BusyCycles.Add(busy)
	}
	if c.toneHolds > 0 {
		c.ToneCycles.Add(skipped)
	}
}

// Tick advances the channel one cycle. It resolves the active
// transmission's completion, starts new transmissions when the medium
// is free (detecting collisions among same-cycle starters), and fires
// tone waiters.
func (c *Channel[P]) Tick(now uint64) {
	if now < c.busyUntil {
		c.BusyCycles.Inc()
	}
	if c.toneHolds > 0 {
		c.ToneCycles.Inc()
	}

	// Complete the active transmission: the collision-detect cycle is
	// the first cycle after the preamble; once we are past it the
	// transmission is guaranteed. We deliver at busyUntil (transfer
	// finished).
	if c.active != nil && now >= c.busyUntil {
		req := c.active
		c.active = nil
		if c.FaultCorrupt != nil && c.FaultCorrupt(req.msg) {
			c.corrupt(now, req)
		} else {
			c.Successes.Inc()
			if req.cb != nil {
				req.cb.TxDone(now)
			}
			if c.onAir != nil {
				c.onAir(now, req.msg)
			}
			c.release(req)
		}
	}

	// Fire tone waiters if silent. The 1-cycle latency is folded into
	// "fires on the Tick after silence is observed".
	if c.toneHolds == 0 && len(c.toneWaiters) > 0 {
		ws := c.toneWaiters
		c.toneWaiters = c.toneSpare[:0]
		if c.Trace != nil {
			c.Trace.Emit(obs.Event{Cycle: now, Kind: obs.EvToneQuiet,
				Node: obs.NoNode, Other: obs.NoNode, Line: obs.NoLine,
				A: uint64(len(ws))})
		}
		for i, r := range ws {
			ws[i] = nil
			r.Run(now)
		}
		c.toneSpare = ws[:0]
	}

	// Try to start a new transmission.
	if c.active != nil || now < c.busyUntil || len(c.queue) == 0 {
		return
	}
	if c.Mac == MACToken {
		c.tickToken(now)
		return
	}
	// BRS: collect the requests whose backoff has expired — they
	// carrier-sense a free medium this cycle and start together. A node
	// has a single transceiver, so at most one of its queued requests
	// (the oldest) can start; same-sender packets serialize without
	// colliding. The per-sender dedup scans the starter list directly:
	// the queue is walked in arrival order, so the oldest request per
	// sender wins deterministically, and the scratch slice avoids the
	// per-Tick map allocation the old map[int]bool bookkeeping paid.
	starters := c.starters[:0]
queue:
	for _, r := range c.queue {
		if r.retryAt > now {
			continue
		}
		for _, s := range starters {
			if s.msg.Sender == r.msg.Sender {
				continue queue
			}
		}
		starters = append(starters, r)
	}
	c.starters = starters[:0]
	if len(starters) == 0 {
		return
	}
	for range starters {
		c.Attempts.Inc()
	}
	if len(starters) > 1 {
		// Collision: every starter aborts after the detect cycle and
		// backs off exponentially (BRS).
		c.busyUntil = now + AbortCycles
		for _, r := range starters {
			c.Collisions.Inc()
			r.tries++
			r.retryAt = now + uint64(AbortCycles) + c.backoff(r.tries)
			if c.Trace != nil {
				c.Trace.Emit(obs.Event{Cycle: now, Kind: obs.EvCollision,
					Node: int32(r.msg.Sender), Other: obs.NoNode,
					Line: r.msg.Line, A: uint64(r.tries)})
			}
		}
		return
	}
	winner := starters[0]
	if !winner.msg.Privileged && c.JammedFor(winner.msg.Line) {
		// The jamming transceiver negative-acks in the detect cycle.
		c.Jams.Inc()
		if c.Trace != nil {
			c.Trace.Emit(obs.Event{Cycle: now, Kind: obs.EvJam,
				Node: int32(winner.msg.Sender), Other: int32(c.jammed[winner.msg.Line].owner),
				Line: winner.msg.Line, A: uint64(winner.tries)})
		}
		c.busyUntil = now + AbortCycles
		c.removeRequest(winner)
		if winner.cb != nil {
			winner.cb.TxAborted(now+AbortCycles, true)
		}
		c.release(winner)
		return
	}
	// Clean start: transmission occupies transfer + detect cycles.
	c.removeRequest(winner)
	c.active = winner
	c.busyUntil = now + TransferCycles + CollisionDetectCycles
	if c.Trace != nil {
		c.Trace.Emit(obs.Event{Cycle: now, Kind: obs.EvSlotGrant,
			Node: int32(winner.msg.Sender), Other: obs.NoNode,
			Line: winner.msg.Line, A: c.busyUntil})
	}
}

// corrupt handles a transmission lost to an injected channel fault.
// The transfer occupied the medium but no receiver accepted it, so the
// serialization point (done) never fires. An unprivileged sender that
// has burned MaxTries attempts gives up with TxAborted(now, false) — the
// jammed=false discriminates a fault abort from a jam — otherwise the
// request re-queues behind an exponential backoff and contends again.
func (c *Channel[P]) corrupt(now uint64, req *txRequest[P]) {
	c.Corrupted.Inc()
	req.tries++
	exhausted := !req.msg.Privileged && c.MaxTries > 0 && req.tries >= c.MaxTries
	if c.Trace != nil {
		var b uint64
		if exhausted {
			b = 1
		}
		c.Trace.Emit(obs.Event{Cycle: now, Kind: obs.EvTxCorrupt,
			Node: int32(req.msg.Sender), Other: obs.NoNode,
			Line: req.msg.Line, A: uint64(req.tries), B: b})
	}
	if c.OnTxFault != nil {
		c.OnTxFault(now, req.msg, exhausted)
	}
	if exhausted {
		c.TxFailures.Inc()
		if req.cb != nil {
			req.cb.TxAborted(now, false)
		}
		c.release(req)
		return
	}
	req.retryAt = now + c.backoff(req.tries)
	c.queue = append(c.queue, req)
}

func (c *Channel[P]) removeRequest(r *txRequest[P]) {
	for i, q := range c.queue {
		if q == r {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

// backoff returns a uniform draw from the BRS exponential window for the
// given retry count, in cycles.
func (c *Channel[P]) backoff(tries int) uint64 {
	exp := tries
	if exp > 6 {
		exp = 6
	}
	window := 1 << exp // slots
	const slot = TransferCycles + CollisionDetectCycles
	return uint64(c.rng.Intn(window) * slot)
}

// CollisionProbability returns collisions / attempts (Table VI metric).
func (c *Channel[P]) CollisionProbability() float64 {
	a := c.Attempts.Value()
	if a == 0 {
		return 0
	}
	return float64(c.Collisions.Value()) / float64(a)
}

// tickToken arbitrates the medium by rotating a virtual token: one node
// may transmit per rotation stop; everyone else waits. Collision-free
// by construction, so jamming is the only abort source.
func (c *Channel[P]) tickToken(now uint64) {
	for hops := 0; hops < c.Nodes; hops++ {
		var winner *txRequest[P]
		for _, r := range c.queue {
			if r.msg.Sender == c.token {
				winner = r
				break
			}
		}
		c.token = (c.token + 1) % c.Nodes
		if winner == nil {
			continue // pass the token on (one hop per cycle folded in)
		}
		c.Attempts.Inc()
		if !winner.msg.Privileged && c.JammedFor(winner.msg.Line) {
			c.Jams.Inc()
			if c.Trace != nil {
				c.Trace.Emit(obs.Event{Cycle: now, Kind: obs.EvJam,
					Node: int32(winner.msg.Sender), Other: int32(c.jammed[winner.msg.Line].owner),
					Line: winner.msg.Line, A: uint64(winner.tries)})
			}
			c.busyUntil = now + AbortCycles
			c.removeRequest(winner)
			if winner.cb != nil {
				winner.cb.TxAborted(now+AbortCycles, true)
			}
			c.release(winner)
			return
		}
		c.removeRequest(winner)
		c.active = winner
		// Token handover costs one cycle per hop skipped.
		c.busyUntil = now + uint64(hops) + TransferCycles + CollisionDetectCycles
		if c.Trace != nil {
			c.Trace.Emit(obs.Event{Cycle: now, Kind: obs.EvSlotGrant,
				Node: int32(winner.msg.Sender), Other: obs.NoNode,
				Line: winner.msg.Line, A: c.busyUntil})
		}
		return
	}
}
