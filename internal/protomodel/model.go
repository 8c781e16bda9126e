// Package protomodel statically extracts the coherence-protocol state
// machines from the Go sources of internal/coherence and checks them
// against the checked-in machine-readable specification under spec/.
//
// The extractor (see extract.go) walks the controller entry points with
// go/ast + go/types, narrowing a (state, event) context through enum
// switches and comparisons, and records every observable transition
// `(state, event) -> next` together with its file:line provenance. The
// result is a Model: a canonical, deterministic transition table for
// the directory FSM (stable DI/DS/DO/DW states plus the transient
// busy:<txn> states) and the private-cache FSM (I/S/E/M/W).
//
// Where extraction cannot see a transition (core-issued events, ack
// paths whose next state is the transaction's underlying stable state)
// the coherence sources carry small `//proto:` annotation comments; the
// annotation's own position becomes the transition's provenance, so
// every row of the model still points into the implementation.
package protomodel

import (
	"fmt"
	"sort"
	"strings"
)

// Transition is one extracted `(from, event) -> next` arm.
type Transition struct {
	Machine string
	From    string // state name, or "*" (any stable state)
	Event   string
	Next    string // state name, or "error" (protocol error by design)
	Pos     string // module-relative file:line provenance
	Source  string // "code", "annot" (explicit annotation) or "self" (synthesized self-loop)
}

// Key returns the identity of the transition (provenance excluded).
func (t Transition) Key() string {
	return t.Machine + "\x00" + t.From + "\x00" + t.Event + "\x00" + t.Next
}

// Pair records that the extractor proved a concrete (state, event)
// combination is handled, even if no state change was observed there.
type Pair struct {
	Machine string
	State   string
	Event   string
	Pos     string
}

// Machine is the extracted model of one finite-state machine.
type Machine struct {
	Name        string
	States      []string // stable states in enum order, then transient states
	Stable      []string // stable states only, in enum order
	Events      []string // message-type events, then annotation-only events
	WireEvents  []string // the message-type events of the roots without an event set
	Transitions []Transition
	Pairs       []Pair
}

// Model is the full extracted protocol model.
type Model struct {
	Machines []*Machine
}

// Machine returns the named machine, or nil.
func (m *Model) Machine(name string) *Machine {
	for _, mc := range m.Machines {
		if mc.Name == name {
			return mc
		}
	}
	return nil
}

// Covered reports whether the machine handles the (state, event) pair:
// either a transition (concrete or from "*") or a proven handled pair.
func (mc *Machine) Covered(state, event string) bool {
	for _, t := range mc.Transitions {
		if t.Event == event && (t.From == state || t.From == "*") {
			return true
		}
	}
	for _, p := range mc.Pairs {
		if p.State == state && p.Event == event {
			return true
		}
	}
	return false
}

// Lookup returns the transitions out of (from, event), "*" included.
func (mc *Machine) Lookup(from, event string) []Transition {
	var out []Transition
	for _, t := range mc.Transitions {
		if t.Event == event && (t.From == from || t.From == "*") {
			out = append(out, t)
		}
	}
	return out
}

// finalize sorts everything canonically and synthesizes self-loop
// transitions for handled pairs that produced no state change: a pair
// the walker proved reachable with no assignment leaves the state
// unchanged.
func (mc *Machine) finalize() {
	byKey := map[string]bool{}
	hasFact := map[string]bool{} // from\x00event and *\x00event seen
	for _, t := range mc.Transitions {
		byKey[t.Key()] = true
		hasFact[t.From+"\x00"+t.Event] = true
	}
	for _, p := range mc.Pairs {
		if hasFact[p.State+"\x00"+p.Event] || hasFact["*\x00"+p.Event] {
			continue
		}
		t := Transition{Machine: mc.Name, From: p.State, Event: p.Event,
			Next: p.State, Pos: p.Pos, Source: "self"}
		if !byKey[t.Key()] {
			byKey[t.Key()] = true
			mc.Transitions = append(mc.Transitions, t)
		}
	}
	order := func(s string) string { return s } // lexical; busy: sorts after caps
	sort.Slice(mc.Transitions, func(i, j int) bool {
		a, b := mc.Transitions[i], mc.Transitions[j]
		if a.From != b.From {
			return order(a.From) < order(b.From)
		}
		if a.Event != b.Event {
			return a.Event < b.Event
		}
		return a.Next < b.Next
	})
	sort.Slice(mc.Pairs, func(i, j int) bool {
		a, b := mc.Pairs[i], mc.Pairs[j]
		if a.State != b.State {
			return a.State < b.State
		}
		return a.Event < b.Event
	})
}

// Text renders the machine as an aligned transition table.
func (mc *Machine) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine %s: %d states, %d events, %d transitions\n",
		mc.Name, len(mc.States), len(mc.Events), len(mc.Transitions))
	wf, we, wn := 4, 5, 4
	for _, t := range mc.Transitions {
		wf, we, wn = max(wf, len(t.From)), max(we, len(t.Event)), max(wn, len(t.Next))
	}
	for _, t := range mc.Transitions {
		tag := ""
		if t.Source != "code" {
			tag = " (" + t.Source + ")"
		}
		fmt.Fprintf(&b, "  %-*s %-*s -> %-*s  %s%s\n", wf, t.From, we, t.Event, wn, t.Next, t.Pos, tag)
	}
	return b.String()
}

// Text renders the whole model.
func (m *Model) Text() string {
	var b strings.Builder
	for i, mc := range m.Machines {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(mc.Text())
	}
	return b.String()
}
