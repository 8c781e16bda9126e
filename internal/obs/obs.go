// Package obs is the simulator's structured observability layer: a
// typed, cycle-stamped event schema covering the coherence protocol,
// the wireless and wired NoCs, the private caches and the cores, plus
// the sinks that capture those events and the analyses (spans, latency
// summaries, Perfetto export) built on top of them.
//
// Design contract (DESIGN.md §11):
//
//   - Events carry engine cycles only, never the wall clock. The
//     package is part of the determinism lint set (widir-lint), so a
//     time.Now() anywhere in an event path fails `make check`.
//   - Emission is allocation-free. Event is a small pointer-free value
//     type; every instrumentation site is guarded by a nil check on the
//     configured Sink, so a machine built without tracing pays one
//     predictable branch per site and allocates nothing.
//   - Capture is deterministic: the same seed produces byte-identical
//     event streams, which the machine package's tests assert.
package obs

import "repro/internal/addrspace"

// Kind identifies one event type in the schema.
type Kind uint8

// The event vocabulary. TxnBegin/TxnEnd bracket one core memory request
// from its L1 miss (or wireless-store issue) to its completion; the
// remaining kinds are instants that explain where the cycles of those
// spans went.
const (
	// EvTxnBegin opens a request span. A = span id (per-node sequence),
	// B = protocol Class.
	EvTxnBegin Kind = iota
	// EvTxnEnd closes the span opened with the same (Node, A). B =
	// protocol Class (repeated so the pair is self-checking).
	EvTxnEnd
	// EvL1Miss marks a wired request leaving the L1 for the home
	// directory (Other). A = span id, B = request id.
	EvL1Miss
	// EvL1Fill marks a data grant installing in the L1. A = message
	// type, B = installed cache state.
	EvL1Fill
	// EvWUpgrade is the directory's S->W commit. A = wireless sharer
	// count after the transition.
	EvWUpgrade
	// EvWDowngrade is the directory's W->S commit. A = surviving sharer
	// count.
	EvWDowngrade
	// EvWDecay is an L1 self-invalidating a W line after UpdateCountMax
	// unread updates (Table I W->I decay).
	EvWDecay
	// EvWInv is the directory evicting a W entry and broadcasting a
	// WirInv message (coherence.MsgWirInv).
	EvWInv
	// EvWirUpd is a wireless store serializing (the writer's update is
	// guaranteed on the air). A = span id, B = written word index.
	EvWirUpd
	// EvNACK is the directory bouncing a request from node Other.
	EvNACK
	// EvSlotGrant is a clean wireless-channel acquisition by Node. A =
	// cycle the medium frees again.
	EvSlotGrant
	// EvCollision is one starter losing a same-cycle collision. A =
	// retry count so far.
	EvCollision
	// EvJam is a transmission rejected by a directory jamming the line.
	EvJam
	// EvToneRaise is a node raising the tone channel (ToneAck hold).
	// A = holders after the raise.
	EvToneRaise
	// EvToneLower releases one tone hold. A = holders remaining.
	EvToneLower
	// EvToneQuiet is the tone channel falling silent with waiters; the
	// pending ToneAck operations complete. A = waiters released.
	EvToneQuiet
	// EvMsgSend is a coherence message entering the wired NoC for node
	// Other. A = message type, B = request id.
	EvMsgSend
	// EvMsgRecv is a coherence message delivered by the wired NoC from
	// node Other. A = message type, B = request id.
	EvMsgRecv
	// EvMeshLeg is one packet routed by the packet-level mesh. A = hop
	// count, B = arrival cycle.
	EvMeshLeg
	// EvROBStall is one completed memory-stall episode on a core: Cycle
	// is the episode start, A its length in cycles.
	EvROBStall
	// EvTxCorrupt is a wireless transmission corrupted by injected
	// channel faults (modeled BER): the transfer is lost and the
	// sender retries with backoff, or gives up after bounded retries.
	// A = retry count so far, B = 1 when the sender exhausted its
	// retries (the transmission failed for good).
	EvTxCorrupt
	// EvWFaultDemote is the directory demoting a W line to wired S
	// after K consecutive failed broadcasts for the line (graceful
	// degradation under sustained channel faults). A = consecutive
	// failures observed.
	EvWFaultDemote

	kindCount // number of kinds; keep last
)

//lint:deterministic constant name table, never written after initialization
var kindNames = [kindCount]string{
	EvTxnBegin:     "txn-begin",
	EvTxnEnd:       "txn-end",
	EvL1Miss:       "l1-miss",
	EvL1Fill:       "l1-fill",
	EvWUpgrade:     "w-upgrade",
	EvWDowngrade:   "w-downgrade",
	EvWDecay:       "w-decay",
	EvWInv:         "w-inv",
	EvWirUpd:       "wir-upd",
	EvNACK:         "nack",
	EvSlotGrant:    "slot-grant",
	EvCollision:    "collision",
	EvJam:          "jam",
	EvToneRaise:    "tone-raise",
	EvToneLower:    "tone-lower",
	EvToneQuiet:    "tone-quiet",
	EvMsgSend:      "msg-send",
	EvMsgRecv:      "msg-recv",
	EvMeshLeg:      "mesh-leg",
	EvROBStall:     "rob-stall",
	EvTxCorrupt:    "tx-corrupt",
	EvWFaultDemote: "w-fault-demote",
}

// String returns the kind's stable wire name (used in JSONL and
// Perfetto output and accepted by KindsByGroup filters).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Class labels the protocol path a request span took. It rides in the
// A/B payload of EvTxnBegin/EvTxnEnd.
type Class uint8

// The span classes. Wired classes complete through the directory over
// the mesh; wireless classes complete by broadcasting a WirUpd on the
// wireless data channel (W state).
const (
	ClassWiredLoad Class = iota
	ClassWiredStore
	ClassWiredRMW
	ClassWirelessStore
	ClassWirelessRMW
	classCount
)

//lint:deterministic constant name table, never written after initialization
var classNames = [classCount]string{
	ClassWiredLoad:     "wired-load",
	ClassWiredStore:    "wired-store",
	ClassWiredRMW:      "wired-rmw",
	ClassWirelessStore: "wireless-store",
	ClassWirelessRMW:   "wireless-rmw",
}

// String returns the class's stable name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "unknown"
}

// Wireless reports whether the class completed over the wireless
// channel.
func (c Class) Wireless() bool {
	return c == ClassWirelessStore || c == ClassWirelessRMW
}

// NoLine marks an event not tied to a cache line.
const NoLine = ^addrspace.Line(0)

// NoNode marks an absent node field (chip-global events, no peer).
const NoNode int32 = -1

// Event is one cycle-stamped record. It is a flat value type with no
// pointers: passing it to Sink.Emit never heap-allocates, which keeps
// enabled-path overhead bounded and the disabled path (nil sink, branch
// not taken) free.
type Event struct {
	Cycle uint64         // engine cycle, never wall-clock
	Kind  Kind           // event type
	Node  int32          // primary node (emitter), or NoNode
	Other int32          // peer node (dst/src/requester), or NoNode
	Line  addrspace.Line // cache line concerned, or NoLine
	A, B  uint64         // kind-specific payload (see Kind docs)
}

// Sink consumes events. Implementations must not retain pointers into
// the caller (Event is a value) and must be cheap: Emit runs inside the
// simulator's cycle loop. Sinks are not safe for concurrent use; the
// machine emits from its single-threaded event loop.
type Sink interface {
	Emit(e Event)
}

// RingSink keeps the most recent cap events. It grows by append until
// it holds cap events, so a large cap costs only what a run emits;
// from then on Emit overwrites the oldest event in place, allocating
// nothing, and counts it dropped.
type RingSink struct {
	buf []Event
	cap int
	n   uint64 // total events ever emitted
}

// NewRingSink returns a ring holding the last cap events (cap >= 1).
func NewRingSink(cap int) *RingSink {
	if cap < 1 {
		cap = 1
	}
	return &RingSink{cap: cap}
}

// Emit records the event, overwriting the oldest when full.
func (r *RingSink) Emit(e Event) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.n%uint64(r.cap)] = e
	}
	r.n++
}

// Len returns the number of retained events.
func (r *RingSink) Len() int { return len(r.buf) }

// Dropped returns how many events were overwritten.
func (r *RingSink) Dropped() uint64 { return r.n - uint64(len(r.buf)) }

// Events returns the retained events in emission order (oldest first).
func (r *RingSink) Events() []Event {
	var start uint64 // the oldest event's slot: 0 until the ring is full
	if len(r.buf) == r.cap {
		start = r.n % uint64(r.cap)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[start:]...)
	return append(out, r.buf[:start]...)
}

// Tee fans one event out to several sinks in order.
type Tee []Sink

// Emit forwards to every sink.
func (t Tee) Emit(e Event) {
	for _, s := range t {
		s.Emit(e)
	}
}
