// Package vet is the simulator's interprocedural shared-state auditor:
// the static certificate behind ROADMAP item 2 (deterministic parallel
// in-sim execution). It answers, from source alone, the question the
// parallel-domain scheduler depends on: what state can the tick path
// actually touch, and through which objects?
//
// The analysis (stdlib go/ast + go/types only, on top of the
// internal/analysis module loader) proceeds in three steps:
//
//  1. Call graph. Every function and method declared in the simulator
//     scope packages is a node; edges come from static calls, method
//     calls (resolved through embedded-struct promotion and generic
//     instantiation via types.Selection/Instances), and interface
//     dispatch (an interface method call fans out to every in-scope
//     concrete implementation). Function literals are their own nodes.
//     Reachability starts from the tick-path entry points (machine
//     Run/Step, the engine timing-wheel RunDue dispatch, the
//     mesh/wireless/cpu Tick functions) plus every function value that
//     escapes — anything scheduled on the timing wheel or stored as a
//     callback can fire during a tick, so an address-taken function is
//     a root whether or not its creator is on the tick path.
//
//  2. Effect sets. Each node gets a read set and a write set over the
//     module's shared state: package-level variables ("global" keys),
//     fields of named heap objects ("field" keys, attributed to the
//     named type that owns the written field, with generic
//     instantiations collapsed onto their origin declaration), and
//     writes through unnamed-type parameters ("param" keys). Writes to
//     plain locals and to locals' fresh allocations are domain-private
//     by construction and carry no effect.
//
//  3. Ledger check. The union of write effects over the reachable set
//     is compared against the checked-in shared-state ledger
//     (ledger.widirvet, same checked-in-spec pattern as the protocol
//     spec tables). Every reachable write site must be registered and
//     classified — domain-local, barrier-mediated, or needs-partition —
//     so the ledger doubles as the work-list for the parallel-domain
//     refactor; unregistered state, stale entries, and unexplained
//     needs-partition entries all fail `widir-vet -check`.
//
// Two source annotations steer the analysis (grammar enforced, see
// annot.go): `//vet:local <why>` on a package-level var or struct
// field declares it domain-safe and exempts it from registration, and
// `//vet:pure` on a function asserts it writes no non-receiver state —
// checked interprocedurally here and intraprocedurally by the tickpure
// rule in internal/analysis.
//
// Known, documented approximations: writes through a local variable of
// unnamed reference type that aliases heap state are attributed only
// when a field selection appears in the expression (sim code style
// keeps containers behind named fields, so the gap is narrow), and
// calls into the standard library are assumed to not mutate module
// state (the determinism lint already bans the dangerous stdlib).
// DESIGN.md §18 records the model in full.
package vet

import (
	"fmt"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Config names the module, the packages in scope, and the entry-point
// function names for the reachability roots.
type Config struct {
	ModuleDir string
	// Scope is the list of package patterns (relative to ModuleDir,
	// go-style "./..." accepted) whose declarations are analyzed.
	Scope []string
	// Entries are unqualified function or method base names treated as
	// tick-path roots wherever they appear in scope.
	Entries []string
	// LedgerPath is the shared-state ledger location (default
	// internal/vet/ledger.widirvet under ModuleDir).
	LedgerPath string
}

// simScope is the simulator package set under the shared-state
// contract: the deterministic sim packages plus the seeded RNG and the
// address-space mapper they tick through.
var simScope = []string{
	"internal/addrspace", "internal/cache", "internal/coherence",
	"internal/core", "internal/cpu", "internal/energy",
	"internal/engine", "internal/fault", "internal/machine",
	"internal/mesh", "internal/obs", "internal/stats",
	"internal/wireless", "internal/workload", "internal/xrand",
}

// DefaultEntries are the tick-path roots: the machine cycle loop, the
// timing-wheel dispatch, and the per-component tick functions. "Run"
// also matches every engine.Runner implementation — pooled wheel
// callbacks — which is exactly the intent.
var DefaultEntries = []string{"Run", "Step", "Tick", "RunDue"}

// DefaultConfig returns the repository configuration rooted at
// moduleDir.
func DefaultConfig(moduleDir string) Config {
	scope := make([]string, len(simScope))
	for i, s := range simScope {
		scope[i] = "./" + s
	}
	return Config{
		ModuleDir:  moduleDir,
		Scope:      scope,
		Entries:    append([]string(nil), DefaultEntries...),
		LedgerPath: filepath.Join(moduleDir, "internal", "vet", "ledger.widirvet"),
	}
}

// StateKind distinguishes the classes of shared state a write can
// target.
type StateKind string

const (
	// KindGlobal is a package-level variable.
	KindGlobal StateKind = "global"
	// KindField is a field of a named type, reached through any alias.
	KindField StateKind = "field"
	// KindParam is a write through a parameter of unnamed type — state
	// whose owner the analysis cannot name and the caller must account
	// for.
	KindParam StateKind = "param"
)

// Site is one read or write of shared state at a source position.
type Site struct {
	Kind StateKind
	Key  string // canonical state key, e.g. "repro/internal/engine.Wheel.head"
	Pos  token.Position
	Recv bool // the access is rooted at the function's own receiver
}

// FuncNode is one function, method, or function literal in scope.
type FuncNode struct {
	Name string      // canonical name; literals get <encloser>$litN
	Obj  *types.Func // nil for literals
	Pos  token.Position
	Pure bool // carries //vet:pure

	Reads  []Site
	Writes []Site

	calls   []*callsite
	escapes bool // the function's value escapes (address taken)
}

// callsite is one call expression: either statically resolved or an
// interface dispatch to be fanned out after all nodes exist.
type callsite struct {
	pos    token.Position
	target *types.Func      // static / method / instantiated-origin callee
	lit    *FuncNode        // immediately-invoked literal
	iface  *types.Named     // named interface type for dynamic dispatch, if known
	ifaceT *types.Interface // interface under dispatch
	name   string           // method name for interface dispatch
	sig    *types.Signature
}

// State is the aggregate view of one shared-state key across the
// reachable tick path.
type State struct {
	Kind    StateKind
	Key     string
	DeclPos token.Position // declaration of the var / field, when resolvable
	Writers []string       // canonical function names, sorted
	Readers []string
	Sites   []token.Position // write sites, sorted
	Local   bool             // declaration carries //vet:local
}

// Analysis is the result of one vet pass.
type Analysis struct {
	Config   Config
	ModPath  string // the analyzed module's import path
	Packages []*analysis.Package

	Funcs     map[string]*FuncNode // by canonical name
	byObj     map[*types.Func]*FuncNode
	Reachable map[string]bool // canonical name -> on tick path

	// States aggregates write effects over the reachable set, keyed by
	// "<kind> <key>".
	States map[string]*State

	// Annots are the malformed-annotation findings discovered during
	// the walk (rule vetannot) — reported even when the ledger is
	// clean.
	Annots []analysis.Finding

	locals  map[string]token.Position // //vet:local decl keys -> annotation pos
	declPos map[string]token.Position // state key -> declaration position
}

// Analyze loads the scope packages through the shared module loader
// and runs the full analysis.
func Analyze(cfg Config) (*Analysis, error) {
	loader, err := analysis.NewLoader(cfg.ModuleDir)
	if err != nil {
		return nil, err
	}
	return AnalyzeWith(loader, cfg)
}

// AnalyzeWith runs the analysis over an existing loader (tests share
// one loader to pay the stdlib type-checking cost once).
func AnalyzeWith(loader *analysis.Loader, cfg Config) (*Analysis, error) {
	dirs, err := analysis.ExpandPatterns(cfg.ModuleDir, cfg.Scope)
	if err != nil {
		return nil, fmt.Errorf("vet: %w", err)
	}
	var pkgs []*analysis.Package
	for _, d := range dirs {
		p, err := loader.Load(d)
		if err != nil {
			return nil, fmt.Errorf("vet: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return analyzePackages(cfg, loader.ModulePath, pkgs)
}

func analyzePackages(cfg Config, modPath string, pkgs []*analysis.Package) (*Analysis, error) {
	a := &Analysis{
		Config:    cfg,
		ModPath:   modPath,
		Packages:  pkgs,
		Funcs:     map[string]*FuncNode{},
		byObj:     map[*types.Func]*FuncNode{},
		Reachable: map[string]bool{},
		States:    map[string]*State{},
		locals:    map[string]token.Position{},
		declPos:   map[string]token.Position{},
	}
	for _, p := range pkgs {
		a.Annots = append(a.Annots, collectVetAnnots(p, a.locals)...)
		walkPackage(a, p, modPath)
	}
	a.resolveReachability()
	a.aggregate()
	return a, nil
}

// node returns (creating if needed) the FuncNode for a declared
// function object, keyed by its origin so every generic instantiation
// shares one node.
func (a *Analysis) node(fn *types.Func) *FuncNode {
	fn = origin(fn)
	if n, ok := a.byObj[fn]; ok {
		return n
	}
	n := &FuncNode{Name: fn.FullName(), Obj: fn}
	a.byObj[fn] = n
	a.Funcs[n.Name] = n
	return n
}

// origin maps an instantiated generic function or method back to its
// declaration.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// resolveReachability seeds the roots (entry names + escaped function
// values) and runs the BFS, fanning interface callsites out to every
// in-scope implementation.
func (a *Analysis) resolveReachability() {
	entry := map[string]bool{}
	for _, e := range a.Config.Entries {
		entry[e] = true
	}
	var queue []*FuncNode
	push := func(n *FuncNode) {
		if n != nil && !a.Reachable[n.Name] {
			a.Reachable[n.Name] = true
			queue = append(queue, n)
		}
	}
	for _, n := range a.Funcs {
		base := n.Name
		if i := strings.LastIndex(base, "."); i >= 0 {
			base = base[i+1:]
		}
		if n.Obj != nil && entry[base] {
			push(n)
		}
		if n.escapes {
			push(n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, cs := range n.calls {
			switch {
			case cs.lit != nil:
				push(cs.lit)
			case cs.target != nil:
				if t := a.byObj[origin(cs.target)]; t != nil {
					push(t)
				}
			case cs.ifaceT != nil:
				for _, impl := range a.implementers(cs.ifaceT, cs.name) {
					push(impl)
				}
			}
		}
	}
}

// implementers returns the in-scope concrete methods that an interface
// method call can dispatch to.
func (a *Analysis) implementers(iface *types.Interface, name string) []*FuncNode {
	var out []*FuncNode
	for _, p := range a.Packages {
		if p.Types == nil {
			continue
		}
		scope := p.Types.Scope()
		for _, tn := range scope.Names() {
			obj, ok := scope.Lookup(tn).(*types.TypeName)
			if !ok || obj.IsAlias() {
				continue
			}
			named, ok := obj.Type().(*types.Named)
			if !ok {
				continue
			}
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			m, _, _ := types.LookupFieldOrMethod(ptr, true, p.Types, name)
			if fn, ok := m.(*types.Func); ok {
				if n := a.byObj[origin(fn)]; n != nil {
					out = append(out, n)
				}
			}
		}
	}
	return out
}

// aggregate folds the reachable nodes' write (and read) effects into
// the shared-state table.
func (a *Analysis) aggregate() {
	add := func(s Site, fn string, write bool) {
		id := string(s.Kind) + " " + s.Key
		st := a.States[id]
		if st == nil {
			st = &State{Kind: s.Kind, Key: s.Key}
			if pos, ok := a.declPos[s.Key]; ok {
				st.DeclPos = pos
			}
			if _, ok := a.locals[s.Key]; ok {
				st.Local = true
			}
			a.States[id] = st
		}
		if write {
			st.Writers = append(st.Writers, fn)
			st.Sites = append(st.Sites, s.Pos)
		} else {
			st.Readers = append(st.Readers, fn)
		}
	}
	for name, n := range a.Funcs {
		if !a.Reachable[name] {
			continue
		}
		for _, w := range n.Writes {
			add(w, name, true)
		}
		for _, r := range n.Reads {
			add(r, name, false)
		}
	}
	for _, st := range a.States {
		st.Writers = dedupSort(st.Writers)
		st.Readers = dedupSort(st.Readers)
		sort.Slice(st.Sites, func(i, j int) bool { return posLess(st.Sites[i], st.Sites[j]) })
	}
}

// WriteStates returns the shared-state entries with at least one
// reachable writer, sorted by kind then key — the set the ledger must
// cover.
func (a *Analysis) WriteStates() []*State {
	var out []*State
	for _, st := range a.States {
		if len(st.Writers) > 0 {
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// PureViolations checks every //vet:pure function interprocedurally: a
// pure function may write its own receiver's state but nothing else,
// and nothing it calls (transitively, with interface fan-out) may
// write shared state at all.
func (a *Analysis) PureViolations() []analysis.Finding {
	var out []analysis.Finding
	for _, name := range sortedFuncNames(a.Funcs) {
		n := a.Funcs[name]
		if !n.Pure {
			continue
		}
		for _, w := range n.Writes {
			if w.Recv {
				continue
			}
			out = append(out, analysis.Finding{
				Rule: "vetpure", Pos: w.Pos,
				Message: fmt.Sprintf("%s is //vet:pure but writes non-receiver state %s %s", n.Name, w.Kind, w.Key),
			})
		}
		seen := map[string]bool{name: true}
		queue := a.calleeNodes(n)
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			if seen[c.Name] {
				continue
			}
			seen[c.Name] = true
			for _, w := range c.Writes {
				out = append(out, analysis.Finding{
					Rule: "vetpure", Pos: w.Pos,
					Message: fmt.Sprintf("%s is //vet:pure but callee %s writes %s %s", n.Name, c.Name, w.Kind, w.Key),
				})
			}
			queue = append(queue, a.calleeNodes(c)...)
		}
	}
	return out
}

func (a *Analysis) calleeNodes(n *FuncNode) []*FuncNode {
	var out []*FuncNode
	for _, cs := range n.calls {
		switch {
		case cs.lit != nil:
			out = append(out, cs.lit)
		case cs.target != nil:
			if t := a.byObj[origin(cs.target)]; t != nil {
				out = append(out, t)
			}
		case cs.ifaceT != nil:
			out = append(out, a.implementers(cs.ifaceT, cs.name)...)
		}
	}
	return out
}

func dedupSort(xs []string) []string {
	sort.Strings(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

func sortedFuncNames(m map[string]*FuncNode) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// RelPos renders a position relative to the module root for stable
// checked-in provenance.
func RelPos(moduleDir string, pos token.Position) string {
	if pos.Filename == "" {
		return "-"
	}
	rel, err := filepath.Rel(moduleDir, pos.Filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		rel = pos.Filename
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line)
}
