// Package coherence implements the cache coherence protocols: the
// Baseline invalidation-based MESI directory protocol with Dir_3B
// limited pointers + broadcast bit, and WiDir, which augments it with
// the Wireless Shared (W) state, the Jamming and ToneAck primitives,
// and the wireless transitions of the paper's Tables I and II.
//
// The package contains two controllers — the private-cache (L1)
// controller and the home directory controller embedded in each LLC
// slice — plus the message vocabulary they exchange over the wired mesh
// and the wireless channel.
package coherence

import (
	"fmt"

	"repro/internal/addrspace"
	"repro/internal/engine"
)

// Protocol selects which coherence protocol a machine runs.
type Protocol int

// The two protocols under evaluation.
const (
	// Baseline is the conventional Dir_3B MESI directory protocol over
	// the wired NoC only.
	Baseline Protocol = iota
	// WiDir augments Baseline with the Wireless (W) state.
	WiDir
)

// String names the protocol as in the paper.
func (p Protocol) String() string {
	if p == WiDir {
		return "WiDir"
	}
	return "Baseline"
}

// MsgType enumerates the wired and wireless protocol messages.
type MsgType uint8

// Wired request/response vocabulary (conventional MESI directory), the
// WiDir wired additions and the wireless broadcasts from Tables I and
// II.
const (
	// Core -> Home requests.
	MsgGetS MsgType = iota // read miss
	MsgGetX                // write miss / upgrade (IsSharer set when upgrading)

	// Home -> Core responses.
	MsgDataS   // data grant, Shared
	MsgDataE   // data grant, Exclusive (MESI clean-exclusive)
	MsgDataM   // data grant, Modified (ownership)
	MsgNACK    // bounce: directory entry busy, retry later
	MsgWirUpgr // WiDir: data + "this line is Wireless now" (NeedAck selects Table I case)

	// Home -> Core coherence actions.
	MsgInv     // invalidate your copy, ack home
	MsgFwdGetS // you own this line: send data to Requester and copy back to home
	MsgFwdGetX // you own this line: send data+ownership to Requester
	MsgRecall  // home is evicting the entry: invalidate, return data if dirty

	// Core -> Home responses and notifications.
	MsgInvAck
	MsgCopyBack   // owner's data copy-back after FwdGetS (also downgrades owner to S)
	MsgXferAck    // requester's ack after receiving ownership via FwdGetX
	MsgRecallAck  // response to Recall (HasData set when the line was dirty)
	MsgPutS       // eviction notice of a Shared line
	MsgPutE       // eviction notice of a clean-Exclusive line
	MsgPutM       // eviction writeback of a Modified line (carries data)
	MsgPutW       // WiDir: core left the wireless sharer group (Table I W->I)
	MsgWirUpgrAck // WiDir: ack of a WirUpgr that needed one (Table II W->W case 1)
	MsgWirDwgrAck // WiDir: wired ack of a wireless WirDwgr, carries core ID

	// Home -> Core put acknowledgment (releases the victim buffer entry).
	MsgPutAck

	// Home -> Core: the GetX was discarded per Table II W->W case 2 (a
	// stale upgrade against a W entry). The requester normally resolved
	// via the BrWirUpgr already; if not (it lost the line before the
	// broadcast), it re-requests as a non-sharer.
	MsgWDiscard

	// Core -> Core (owner-to-requester data transfers).
	MsgDataOwnerS // data from owner, install Shared
	MsgDataOwnerM // data+ownership from owner, install Modified

	// Memory controller traffic.
	MsgMemRead
	MsgMemData
	MsgMemWrite

	// Wireless broadcasts on the data channel: every node receives each
	// one through HandleWireless, and jamming filters them by Line. Src
	// is the sender.
	MsgBrWirUpgr // home: the line is Wireless now; starts the ToneAck (Table II S->W)
	MsgWirDwgr   // home: downgrade to Shared and ack over the wire (Table II W->S)
	MsgWirInv    // home: the entry is evicted, drop the line (Table II W->I)
	MsgWirUpd    // writer: fine-grain write of Words[Word] (Table I W->W)
)

//lint:deterministic constant name table, never written after initialization
var msgNames = [...]string{
	MsgGetS: "GetS", MsgGetX: "GetX",
	MsgDataS: "DataS", MsgDataE: "DataE", MsgDataM: "DataM",
	MsgNACK: "NACK", MsgWirUpgr: "WirUpgr",
	MsgInv: "Inv", MsgFwdGetS: "FwdGetS", MsgFwdGetX: "FwdGetX", MsgRecall: "Recall",
	MsgInvAck: "InvAck", MsgCopyBack: "CopyBack", MsgXferAck: "XferAck",
	MsgRecallAck: "RecallAck",
	MsgPutS:      "PutS", MsgPutE: "PutE", MsgPutM: "PutM", MsgPutW: "PutW",
	MsgWirUpgrAck: "WirUpgrAck", MsgWirDwgrAck: "WirDwgrAck", MsgPutAck: "PutAck",
	MsgWDiscard:   "WDiscard",
	MsgDataOwnerS: "DataOwnerS", MsgDataOwnerM: "DataOwnerM",
	MsgMemRead: "MemRead", MsgMemData: "MemData", MsgMemWrite: "MemWrite",
	MsgBrWirUpgr: "BrWirUpgr", MsgWirDwgr: "WirDwgr", MsgWirInv: "WirInv", MsgWirUpd: "WirUpd",
}

// String returns the protocol name of the message type.
func (t MsgType) String() string {
	if int(t) < len(msgNames) && msgNames[t] != "" {
		return msgNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// CarriesData reports whether the wired message includes a full cache
// line (which sizes the mesh packet at data rather than control width).
func (t MsgType) CarriesData() bool {
	switch t {
	case MsgDataS, MsgDataE, MsgDataM, MsgWirUpgr, MsgCopyBack, MsgPutM,
		MsgDataOwnerS, MsgDataOwnerM, MsgMemData, MsgMemWrite, MsgRecallAck:
		return true
	default:
		return false // control-only messages: requests, acks, notices
	}
}

// Msg is one protocol message, wired or wireless.
type Msg struct {
	Type      MsgType
	Line      addrspace.Line
	Src       int // sending node
	Requester int // original requester for forwarded transactions
	// Port is the sink the message is addressed to at the destination
	// node. The machine stamps it at send time and dispatches on it at
	// delivery, so a *Msg rides the mesh as the packet payload directly
	// (a pointer in an interface) instead of inside a boxed envelope.
	Port PortKind
	// ReqID matches responses to the request they answer. Every request
	// receives exactly one response (grant, NACK or WDiscard); a grant
	// whose ReqID does not match the requester's current outstanding
	// request answers an abandoned request and is applied idempotently
	// without completing anything.
	ReqID    uint64
	IsSharer bool
	NeedAck  bool // WirUpgr: requester must reply WirUpgrAck (Table II W->W case 1)
	HasData  bool
	Word     uint8 // WirUpd: the written word; its value is Words[Word]
	Words    [addrspace.WordsPerLine]uint64
}

// Bytes returns the packet payload size used for mesh flit accounting:
// an 8-byte control header, plus the line for data-bearing messages.
func (m *Msg) Bytes() int {
	if m.Type.CarriesData() && m.HasData {
		return 8 + addrspace.LineSize
	}
	return 8
}

// PortKind identifies which controller at a node receives a wired
// message.
type PortKind uint8

// The three wired message sinks at a node.
const (
	PortL1 PortKind = iota
	PortHome
	PortMC
)

// TxCallback receives the outcome of a wireless transmission (the
// machine hands it to the wireless channel). TxDone fires at the
// serialization point, TxAborted on a jam (jammed=true) or when the
// channel gives up after fault retries.
type TxCallback interface {
	TxDone(now uint64)
	TxAborted(now uint64, jammed bool)
}

// Env is the machine context the controllers run in: time, the two
// networks, address mapping, and delayed self-calls. The machine
// implements it.
//
// Wired messages have one owner at a time. SendWired copies m into a
// message the machine takes from its free list; the machine delivers
// that message to HandleWired and frees it when the handler returns,
// unless the handler reports that it kept the message. A controller
// that keeps a message owns it and returns it with FreeMsg once it is
// done with it.
type Env interface {
	// Now returns the current cycle.
	Now() uint64
	// SendWired injects a wired message; its size sizes the packet.
	SendWired(src, dst int, port PortKind, m Msg)
	// FreeMsg returns a message a handler kept to the machine.
	FreeMsg(m *Msg)
	// TransmitWireless queues m as a broadcast from node m.Src about
	// m.Line and returns its handle for CancelWireless; cb (nil for
	// none) learns the outcome. The channel carries a copy of m, so the
	// sender may reuse its own copy at once. Privileged transmissions
	// (a directory's own protocol broadcasts) pass through jamming.
	TransmitWireless(m Msg, privileged bool, cb TxCallback) (tx uint64)
	// CancelWireless withdraws a queued broadcast; it reports false
	// when the transmission has already serialized or finished.
	CancelWireless(tx uint64) bool
	// WirelessActive reports an in-flight (guaranteed) transmission
	// concerning the line; directories defer data snapshots past it.
	WirelessActive(l addrspace.Line) bool
	// Jam/Unjam drive the Selective Data-Channel Jamming primitive on
	// behalf of the owning directory's node.
	Jam(l addrspace.Line, owner int)
	Unjam(l addrspace.Line, owner int)
	// RaiseTone/LowerTone drive a node's tone antenna; WaitToneSilent
	// schedules the initiator's pooled completion runner for the cycle
	// after the tone channel next falls silent.
	RaiseTone()
	LowerTone()
	WaitToneSilent(r engine.Runner)
	// AfterRunner schedules r.Run at Now()+delay. Controllers pass
	// pooled runner structs, so scheduling allocates nothing.
	AfterRunner(delay uint64, r engine.Runner)
	// HomeOf / MCOf map lines to their home slice and memory controller.
	HomeOf(l addrspace.Line) int
	MCOf(l addrspace.Line) int
	// Nodes returns the machine's node count.
	Nodes() int
	// ReportProtocolError surfaces a detected protocol violation. The
	// machine latches the first report and fails the run from its cycle
	// loop; the reporting controller returns without advancing, so state
	// after a report is undefined but the process survives to diagnose.
	ReportProtocolError(e *ProtocolError)
}
