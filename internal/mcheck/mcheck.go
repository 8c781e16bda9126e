// Package mcheck is an explicit-state model checker for the WiDir
// coherence protocol (DESIGN.md §15). It explores every reachable
// state of a small configurable model — one directory, a handful of
// L1s, one or two cache lines, symbolic data values, and a bounded
// wired network — under an operational semantics transcribed from
// internal/coherence's home and L1 controllers. The transition
// relation is not trusted blindly: every state change a handler makes
// is validated per hop against the protomodel FSMs (the same spec
// `widir-mcheck` conforms the implementation to), so a spec row
// that goes missing, or a handler path the spec never sanctioned,
// surfaces as a checkable violation with a concrete trace.
//
// Four invariant families are checked:
//
//   - swmr: at most one wired owner (E/M) per line, and no other
//     valid copy while an owner exists (W readers under the wireless
//     regime are exempt by design — that is WiDir's relaxation).
//   - integrity: symbolic-value coherence. Every write serializes as
//     a fresh version; a wired store must land on the current
//     version (lost-update detection) and every load a core performs
//     must observe a version no older than anything that core has
//     already seen. Quiescent states must agree cache/LLC/memory.
//   - deadlock: whenever work is in flight (messages queued, wireless
//     transmissions pending, cores or the directory mid-transaction)
//     at least one non-issue transition is enabled.
//   - liveness: from every reachable state a quiescent state remains
//     reachable (EF quiescence on the reachability graph), and in
//     particular every busy:w-to-s transaction can complete — the
//     W-demotion handshake cannot wedge.
//
// A fault mode mirrors internal/fault's wireless-corruption class: an
// unprivileged wireless store may be corrupted in flight, which
// bounces the writer into a wired retry and counts a failure at the
// home, demoting the line W->S after FaultDemoteAfter strikes (the
// PR 4 recovery rules). Privileged broadcasts (directory-initiated
// WirDwgr/WirInv and the upgrade tone handshake) retry until they
// succeed and are modeled fault-free.
//
// State explosion is kept in check by canonical hashing (states are
// serialized to a minimal byte string), symmetry reduction over L1
// identities (the canonical form is minimized over all permutations
// of the cores), order-preserving renormalization of request IDs and
// data versions, and a partial-order reduction that commits "pure
// drop" deliveries (a message whose delivery provably changes nothing
// but its own removal) immediately instead of interleaving them.
//
// Counterexamples are replayed through internal/obs, so a violation
// comes with the same JSONL / Perfetto trace artifacts the simulator
// itself emits.
package mcheck

import (
	"fmt"
	"sort"

	"repro/internal/pool"
	"repro/internal/protomodel"
)

// Config sizes the model. The zero value is not useful; start from
// DefaultConfig.
type Config struct {
	L1s    int // number of L1 caches (2..4)
	Lines  int // number of cache lines (1 or 2)
	Values int // distinct symbolic store values (>= 1)

	// Reorder bounds the wired network: each directed channel holds at
	// most Reorder in-flight messages for the purpose of gating
	// issue-side transitions (core requests and spontaneous
	// evictions). Protocol-internal sends are never blocked, so the
	// directory can always drain. Delivery is FIFO per channel —
	// the wired NoC preserves point-to-point order, and the protocol
	// depends on it (a GetS overtaking its own PutS would revive an
	// untracked sharer).
	Reorder int

	// OpBudget bounds the total number of spontaneous operations —
	// core loads, core stores, and cache/directory evictions — one
	// exploration may perform, the way Murphi-style protocol models
	// bound their driver processes. Protocol-internal transitions
	// (deliveries, retries, broadcasts, acks) are never budgeted, so
	// every race among in-flight work is still explored, and the
	// system can always drain to quiescence. Six operations reach
	// every WiDir regime: the S->W upgrade needs three, UpdateCount
	// decay five, and fault demotion and the W->S re-demotion of a
	// re-upgraded group six.
	OpBudget int

	MaxWiredSharers  int  // directory threshold for the S->W upgrade
	UpdateCountMax   int  // W self-invalidation decay threshold
	FaultDemoteAfter int  // wireless faults before W->S demotion
	Fault            bool // enable the wireless-corruption transitions
	DirEvict         bool // model directory/LLC capacity evictions
	MaxStates        int  // exploration cap (0 = DefaultMaxStates)
}

// DefaultMaxStates bounds exploration when Config.MaxStates is zero.
const DefaultMaxStates = 4_000_000

// DefaultConfig is the model the CLI and CI explore: 3 L1s, one line,
// two symbolic values, channel bound 2 — big enough to exercise every
// protocol regime (wired MESI, S->W upgrade, wireless updates, decay,
// W->S demotion, directory eviction) while staying exhaustively
// explorable in under half a minute (~1M canonical states).
func DefaultConfig() Config {
	return Config{
		L1s:              3,
		Lines:            1,
		Values:           2,
		Reorder:          2,
		OpBudget:         6,
		MaxWiredSharers:  1,
		UpdateCountMax:   2,
		FaultDemoteAfter: 2,
		DirEvict:         true,
	}
}

// Violation is one invariant failure, with the action path that
// reproduces it from the initial state.
type Violation struct {
	Kind string // "swmr", "integrity", "deadlock", "liveness", "relation", "protocol"
	Msg  string
	Path []string // action labels, initial state first

	acts []action // the same path, replayable by Checker.Counterexample
}

func (v *Violation) Error() string {
	return fmt.Sprintf("%s: %s (after %d steps)", v.Kind, v.Msg, len(v.Path))
}

// Families lists the invariant families in reporting order.
var Families = []string{"swmr", "integrity", "deadlock", "liveness", "relation", "protocol"}

// Result summarizes one exhaustive exploration.
type Result struct {
	States    int
	Edges     int
	MaxDepth  int
	Quiescent int // states with no work in flight
	Violation *Violation
	// Coverage counts protocol regimes visited, keyed by a stable
	// name (e.g. "dir:DW", "wtos-commit", "decay"); tests assert the
	// model is not vacuously clean.
	Coverage map[string]int
}

// Clean reports whether every family held.
func (r *Result) Clean() bool { return r.Violation == nil }

// FamilyVerdicts maps each family to "clean" or the violation text.
func (r *Result) FamilyVerdicts() map[string]string {
	out := make(map[string]string, len(Families))
	for _, f := range Families {
		out[f] = "clean"
	}
	if r.Violation != nil {
		out[r.Violation.Kind] = r.Violation.Msg
	}
	return out
}

// rel is a hash-indexed view of one protomodel machine's transition
// relation, with "*" wildcard rows expanded at query time.
type rel struct {
	name    string
	next    map[string]map[string]bool // from\x00event -> next set
	covered map[string]bool            // from\x00event with any row or pair
}

func newRel(m *protomodel.Machine) *rel {
	r := &rel{name: m.Name, next: map[string]map[string]bool{}, covered: map[string]bool{}}
	for _, t := range m.Transitions {
		k := t.From + "\x00" + t.Event
		if r.next[k] == nil {
			r.next[k] = map[string]bool{}
		}
		r.next[k][t.Next] = true
		r.covered[k] = true
	}
	for _, p := range m.Pairs {
		r.covered[p.State+"\x00"+p.Event] = true
	}
	return r
}

func (r *rel) allows(from, event, to string) bool {
	if r.next[from+"\x00"+event][to] {
		return true
	}
	return r.next["*\x00"+event][to]
}

func (r *rel) hasRow(from, event string) bool {
	return r.covered[from+"\x00"+event] || r.covered["*\x00"+event]
}

// Checker explores one configured model against one extracted (or
// spec-derived) protocol model. It owns the scratch its explorations
// reuse, so one Checker explores at a time; separate Checkers may run
// concurrently.
type Checker struct {
	cfg  Config
	dirM *rel
	l1M  *rel

	// Exploration scratch, set up by the first Explore or
	// Counterexample (not by New, so building a Checker stays cheap).
	perms    [][]int          // every permutation of the L1 ids, identity first
	free     pool.Free[state] // states between uses: successors, candidates
	key, alt []byte           // canonical's encode buffers; key holds the least
	acts     []action         // enumerate's result buffer
}

// scratch allocates the exploration scratch on first use.
func (ck *Checker) scratch() {
	if ck.perms == nil {
		ck.perms = permutations(ck.cfg.L1s)
	}
}

// New builds a Checker. The model must contain "dir" and "l1"
// machines (protomodel.ModelFromSpec(protomodel.EmbeddedSpec()) is
// the canonical source).
func New(cfg Config, model *protomodel.Model) (*Checker, error) {
	if cfg.L1s < 2 || cfg.L1s > 4 {
		return nil, fmt.Errorf("mcheck: L1s must be 2..4, got %d", cfg.L1s)
	}
	if cfg.Lines < 1 || cfg.Lines > 2 {
		return nil, fmt.Errorf("mcheck: Lines must be 1..2, got %d", cfg.Lines)
	}
	if cfg.Values < 1 || cfg.Values > 3 {
		return nil, fmt.Errorf("mcheck: Values must be 1..3, got %d", cfg.Values)
	}
	if cfg.Reorder < 1 {
		return nil, fmt.Errorf("mcheck: Reorder must be >= 1, got %d", cfg.Reorder)
	}
	if cfg.OpBudget < 1 || cfg.OpBudget > 16 {
		return nil, fmt.Errorf("mcheck: OpBudget must be 1..16, got %d", cfg.OpBudget)
	}
	if cfg.MaxWiredSharers < 1 || cfg.MaxWiredSharers >= cfg.L1s {
		return nil, fmt.Errorf("mcheck: MaxWiredSharers must be 1..L1s-1, got %d", cfg.MaxWiredSharers)
	}
	if cfg.UpdateCountMax < 1 {
		return nil, fmt.Errorf("mcheck: UpdateCountMax must be >= 1, got %d", cfg.UpdateCountMax)
	}
	if cfg.FaultDemoteAfter < 1 {
		return nil, fmt.Errorf("mcheck: FaultDemoteAfter must be >= 1, got %d", cfg.FaultDemoteAfter)
	}
	if cfg.MaxStates == 0 {
		cfg.MaxStates = DefaultMaxStates
	}
	dm := model.Machine("dir")
	lm := model.Machine("l1")
	if dm == nil || lm == nil {
		return nil, fmt.Errorf("mcheck: model must define dir and l1 machines")
	}
	return &Checker{cfg: cfg, dirM: newRel(dm), l1M: newRel(lm)}, nil
}

// SortedCoverage renders the coverage counters deterministically as
// "name=count" strings.
func (r *Result) SortedCoverage() []string { return sortedCoverage(r.Coverage) }

// sortedCoverage renders coverage counters deterministically.
func sortedCoverage(cov map[string]int) []string {
	keys := make([]string, 0, len(cov))
	for k := range cov {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("%s=%d", k, cov[k])
	}
	return out
}
