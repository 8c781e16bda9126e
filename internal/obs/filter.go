package obs

import (
	"fmt"
	"strings"

	"repro/internal/addrspace"
)

// KindSet is a bitset over the event vocabulary (kindCount <= 64).
type KindSet uint64

// With returns the set including k.
func (s KindSet) With(k Kind) KindSet { return s | 1<<k }

// Has reports membership.
func (s KindSet) Has(k Kind) bool { return s&(1<<k) != 0 }

// AllKinds matches every event kind.
const AllKinds = KindSet(1<<kindCount - 1)

// kindGroups names coarse event families for CLI filtering. Order is
// the presentation order of GroupNames.
//
//lint:deterministic constant grouping table, never written after initialization
var kindGroups = []struct {
	name  string
	kinds []Kind
}{
	{"txn", []Kind{EvTxnBegin, EvTxnEnd}},
	{"cache", []Kind{EvL1Miss, EvL1Fill}},
	{"wstate", []Kind{EvWUpgrade, EvWDowngrade, EvWDecay, EvWInv, EvWirUpd, EvWFaultDemote}},
	{"wnoc", []Kind{EvSlotGrant, EvCollision, EvJam, EvToneRaise, EvToneLower, EvToneQuiet, EvTxCorrupt}},
	{"mesh", []Kind{EvMsgSend, EvMsgRecv, EvMeshLeg}},
	{"dir", []Kind{EvNACK}},
	{"cpu", []Kind{EvROBStall}},
}

// GroupNames returns the known group names in presentation order.
func GroupNames() []string {
	out := make([]string, len(kindGroups))
	for i, g := range kindGroups {
		out[i] = g.name
	}
	return out
}

// Group returns the group name the kind belongs to ("" if none).
func (k Kind) Group() string {
	for _, g := range kindGroups {
		for _, gk := range g.kinds {
			if gk == k {
				return g.name
			}
		}
	}
	return ""
}

// ParseKinds resolves a comma-separated list of group names and/or
// individual kind names ("wnoc,txn,l1-fill") to a KindSet. An empty
// spec selects everything.
func ParseKinds(spec string) (KindSet, error) {
	if spec == "" {
		return AllKinds, nil
	}
	var set KindSet
next:
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		for _, g := range kindGroups {
			if g.name == tok {
				for _, k := range g.kinds {
					set = set.With(k)
				}
				continue next
			}
		}
		for k := Kind(0); k < kindCount; k++ {
			if k.String() == tok {
				set = set.With(k)
				continue next
			}
		}
		return 0, fmt.Errorf("obs: unknown event class %q (groups: %s)",
			tok, strings.Join(GroupNames(), ", "))
	}
	return set, nil
}

// Filter selects a subset of events. Zero value selects everything;
// set Kinds, Node and/or Line to narrow.
type Filter struct {
	Kinds KindSet        // 0 = all kinds
	Node  int32          // NoNode = any; otherwise match Node or Other
	Line  addrspace.Line // NoLine = any
}

// NewFilter returns a match-everything filter.
func NewFilter() Filter {
	return Filter{Kinds: AllKinds, Node: NoNode, Line: NoLine}
}

// Match reports whether e passes the filter.
func (f Filter) Match(e Event) bool {
	if f.Kinds != 0 && !f.Kinds.Has(e.Kind) {
		return false
	}
	if f.Node != NoNode && e.Node != f.Node && e.Other != f.Node {
		return false
	}
	if f.Line != NoLine && e.Line != f.Line {
		return false
	}
	return true
}

// Apply returns the events passing the filter, preserving order.
func (f Filter) Apply(events []Event) []Event {
	out := make([]Event, 0, len(events))
	for _, e := range events {
		if f.Match(e) {
			out = append(out, e)
		}
	}
	return out
}

// Sink returns a sink that passes on to s the events f matches, in
// emission order.
func (f Filter) Sink(s Sink) Sink { return filterSink{f: f, s: s} }

type filterSink struct {
	f Filter
	s Sink
}

// Emit forwards e if the filter matches it.
func (fs filterSink) Emit(e Event) {
	if fs.f.Match(e) {
		fs.s.Emit(e)
	}
}
