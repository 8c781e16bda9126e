// Package missingarm is the conformant fixture with the directory's
// `DO GetS -> DS` arm deliberately removed: the conformance check must
// report the spec row as unimplemented (and the resulting fall-through
// self-loop as unspecified).
package missingarm

import "repro/internal/cache"

type DirState int

const (
	DirInvalid DirState = iota
	DirShared
	DirOwned
	DirWireless
)

type MsgType int

const (
	MsgGetS MsgType = iota
	MsgGetX
	MsgPutS
)

type txnKind int

const (
	txNone txnKind = iota
	txFetchMem
)

type txn struct{ kind txnKind }

type Msg struct {
	Type MsgType
	Src  int
}

type DirEntry struct {
	State DirState
	busy  *txn
}

type HomeCtrl struct {
	entries map[int]*DirEntry
}

func (h *HomeCtrl) fail(msg string) {}

func (h *HomeCtrl) HandleWired(m *Msg) {
	e := h.entries[m.Src]
	if e == nil {
		return
	}
	switch m.Type {
	case MsgGetS:
		switch e.State {
		case DirInvalid:
			e.busy = &txn{kind: txFetchMem}
		case DirShared:
			// sharer added; state unchanged
		// DELIBERATELY MISSING: case DirOwned (owner must downgrade
		// to DirShared on a read request).
		case DirWireless:
			// broadcast membership grows; state unchanged
		}
	case MsgGetX:
		switch e.State {
		case DirInvalid, DirShared:
			e.State = DirOwned
		case DirOwned:
			h.fail("ownership transfer not modeled")
		case DirWireless:
			e.State = DirWireless
		}
	case MsgPutS:
		if e.State == DirShared {
			e.State = DirInvalid
		}
	default:
		h.fail("unhandled message")
	}
}

type L1Ctrl struct{}

func (l *L1Ctrl) fail(msg string) {}

func (l *L1Ctrl) HandleWired(m *Msg, ln *cache.Line) {
	switch m.Type {
	case MsgGetS:
		if ln != nil {
			ln.State = cache.Shared
		}
	case MsgGetX:
		if ln != nil {
			ln.State = cache.Modified
		}
	default:
		l.fail("unhandled message")
	}
}
