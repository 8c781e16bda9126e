package protomodel

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Extract loads the package at pkgDir (inside the module rooted at
// moduleDir) and extracts the configured state machines from its
// controller entry points.
func Extract(moduleDir, pkgDir string, cfg *Config) (*Model, error) {
	loader, err := analysis.NewLoader(moduleDir)
	if err != nil {
		return nil, err
	}
	pkg, err := loader.Load(pkgDir)
	if err != nil {
		return nil, err
	}
	x := &extractor{
		loader:    loader,
		pkg:       pkg,
		moduleDir: moduleDir,
		funcs:     map[types.Object]*funcInfo{},
	}
	x.collectFuncs()
	if err := x.collectAnnotations(); err != nil {
		return nil, err
	}
	model := &Model{}
	for _, mcfg := range cfg.Machines {
		me, err := x.newMachineExtract(mcfg)
		if err != nil {
			return nil, err
		}
		if err := me.run(); err != nil {
			return nil, err
		}
		model.Machines = append(model.Machines, me.finish())
	}
	return model, nil
}

// funcInfo is one function or method declaration of the analyzed
// package, plus its //proto: function-level annotations.
type funcInfo struct {
	decl  *ast.FuncDecl
	stop  bool   // //proto:stop - do not enter from call sites
	event string // //proto:event E - walking this function sets the event
}

// annot is one parsed //proto:transition comment.
type annot struct {
	machine string
	from    string
	event   string
	next    string
	pos     token.Pos
}

type extractor struct {
	loader    *analysis.Loader
	pkg       *analysis.Package
	moduleDir string
	funcs     map[types.Object]*funcInfo
	annots    []annot
}

// position renders a module-relative file:line for provenance.
func (x *extractor) position(pos token.Pos) string {
	p := x.pkg.Fset.Position(pos)
	if rel, err := filepath.Rel(x.moduleDir, p.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
	}
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

func (x *extractor) collectFuncs() {
	for _, f := range x.pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := x.pkg.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			fi := &funcInfo{decl: fd}
			if fd.Doc != nil {
				for _, c := range fd.Doc.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if text == "proto:stop" {
						fi.stop = true
					}
					if rest, ok := strings.CutPrefix(text, "proto:event "); ok {
						fi.event = strings.TrimSpace(rest)
					}
				}
			}
			x.funcs[obj] = fi
		}
	}
}

// collectAnnotations parses and validates every //proto: comment in
// the package. The grammar:
//
//	//proto:stop
//	//proto:event <E>
//	//proto:transition <machine> <from> <event> -> <next>
//
// Any other comment whose text begins with "proto:" — an unknown
// directive, a typo, a directive missing its argument — is an error
// with file:line provenance, not a silent no-op: an annotation the
// extractor skips quietly would let the model drift from the code it
// claims to describe.
func (x *extractor) collectAnnotations() error {
	for _, f := range x.pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "proto:") {
					continue
				}
				if err := x.validateProtoComment(c, text); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// validateProtoComment checks one proto:-prefixed comment against the
// grammar and records transition annotations. proto:stop and
// proto:event are consumed by collectFuncs (they only have meaning in
// a function's doc comment); here they are validated for shape so a
// malformed one cannot be skipped silently.
func (x *extractor) validateProtoComment(c *ast.Comment, text string) error {
	directive, rest, _ := strings.Cut(text, " ")
	args := strings.Fields(rest)
	switch directive {
	case "proto:stop":
		if len(args) != 0 {
			return fmt.Errorf("%s: malformed annotation %q (proto:stop takes no argument)",
				x.position(c.Pos()), c.Text)
		}
	case "proto:event":
		if len(args) != 1 {
			return fmt.Errorf("%s: malformed annotation %q (want: proto:event <E>)",
				x.position(c.Pos()), c.Text)
		}
	case "proto:transition":
		if len(args) != 5 || args[3] != "->" {
			return fmt.Errorf("%s: malformed annotation %q (want: machine from event -> next)",
				x.position(c.Pos()), c.Text)
		}
		x.annots = append(x.annots, annot{
			machine: args[0], from: args[1], event: args[2],
			next: args[4], pos: c.Pos(),
		})
	default:
		return fmt.Errorf("%s: unknown annotation %q (want proto:stop, proto:event or proto:transition)",
			x.position(c.Pos()), c.Text)
	}
	return nil
}

// enumInfo is one resolved integer enum: its named type plus the
// display name of each member value.
type enumInfo struct {
	typ     *types.Named
	byVal   map[int64]string
	display []string // unique displays in ascending value order
}

func (e *enumInfo) nameOf(val int64) (string, bool) {
	s, ok := e.byVal[val]
	return s, ok
}

// resolveEnum enumerates the typed constants of ref's type.
func (x *extractor) resolveEnum(ref EnumRef) (*enumInfo, error) {
	tpkg := x.pkg.Types
	if ref.Pkg != "" {
		p, err := x.loader.Import(ref.Pkg)
		if err != nil {
			return nil, fmt.Errorf("protomodel: loading %s: %w", ref.Pkg, err)
		}
		tpkg = p
	}
	obj := tpkg.Scope().Lookup(ref.Type)
	named, _ := obj.Type().(*types.Named)
	if named == nil {
		return nil, fmt.Errorf("protomodel: %s.%s is not a defined type", tpkg.Path(), ref.Type)
	}
	info := &enumInfo{typ: named, byVal: map[int64]string{}}
	type member struct {
		val  int64
		name string
	}
	var members []member
	scope := tpkg.Scope()
	names := scope.Names() // sorted
	for _, name := range names {
		cn, ok := scope.Lookup(name).(*types.Const)
		if !ok || cn.Type() != named {
			continue
		}
		v, ok := exactInt(cn.Val().ExactString())
		if !ok {
			continue
		}
		display := name
		if r, ok := ref.Rename[name]; ok {
			display = r
		} else if ref.Prefix != "" {
			display = strings.TrimPrefix(name, ref.Prefix)
		}
		if prev, ok := info.byVal[v]; ok {
			// Alias: prefer an explicitly renamed name.
			if _, renamed := ref.Rename[name]; !renamed {
				display = prev
			}
			info.byVal[v] = display
			continue
		}
		info.byVal[v] = display
		members = append(members, member{v, display})
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("protomodel: enum %s.%s has no members", tpkg.Path(), ref.Type)
	}
	sort.Slice(members, func(i, j int) bool { return members[i].val < members[j].val })
	for i := range members {
		// Alias resolution above may have replaced the display.
		info.display = append(info.display, info.byVal[members[i].val])
	}
	return info, nil
}

func exactInt(s string) (int64, bool) {
	var v int64
	_, err := fmt.Sscanf(s, "%d", &v)
	return v, err == nil
}

// machineExtract is the per-machine extraction state.
type machineExtract struct {
	x   *extractor
	cfg *MachineCfg

	states *enumInfo // stable-state enum
	events *enumInfo // message-type enum
	kinds  *enumInfo // transient-kind enum (nil without Busy)

	stable    []string // stable state displays
	busyNames []string // busy:<kind> displays (txNone excluded)
	eventList []string // message-type events + Extra
	wired     []string // message-type events no root names in its Events

	transitions map[string]Transition // keyed by Transition.Key(), first wins
	pairs       map[string]Pair

	active   map[string]bool // in-progress walks (recursion guard)
	done     map[string]bool // completed (function, context) walks (memo)
	steps    int
	overflow bool
}

const maxSteps = 4_000_000

func (x *extractor) newMachineExtract(cfg *MachineCfg) (*machineExtract, error) {
	me := &machineExtract{
		x: x, cfg: cfg,
		transitions: map[string]Transition{},
		pairs:       map[string]Pair{},
		active:      map[string]bool{},
		done:        map[string]bool{},
	}
	var err error
	if me.states, err = x.resolveEnum(cfg.States); err != nil {
		return nil, err
	}
	if me.events, err = x.resolveEnum(cfg.Events); err != nil {
		return nil, err
	}
	me.stable = append(me.stable, me.states.display...)
	if cfg.Busy != nil {
		if me.kinds, err = x.resolveEnum(cfg.Busy.Kinds); err != nil {
			return nil, err
		}
		for _, k := range me.kinds.display {
			if k == "none" {
				continue
			}
			me.busyNames = append(me.busyNames, cfg.Busy.Prefix+k)
		}
	}
	me.eventList = append(me.eventList, me.events.display...)
	me.eventList = append(me.eventList, cfg.Extra...)
	var named []string
	for _, ep := range cfg.EntryPoints {
		named = append(named, ep.Events...)
	}
	me.wired = subtract(me.events.display, named)
	return me, nil
}

func (me *machineExtract) isState(s string) bool {
	for _, v := range me.stable {
		if v == s {
			return true
		}
	}
	for _, v := range me.busyNames {
		if v == s {
			return true
		}
	}
	return false
}

func (me *machineExtract) isEvent(ev string) bool {
	for _, v := range me.eventList {
		if v == ev {
			return true
		}
	}
	return false
}

// run walks the entry points and applies the machine's annotations.
func (me *machineExtract) run() error {
	for _, a := range me.x.annots {
		if a.machine != me.cfg.Name {
			continue
		}
		if a.from != "*" && !me.isState(a.from) {
			return fmt.Errorf("%s: unknown state %q in annotation", me.x.position(a.pos), a.from)
		}
		if !me.isEvent(a.event) {
			return fmt.Errorf("%s: unknown event %q in annotation", me.x.position(a.pos), a.event)
		}
		if a.next != "error" && !me.isState(a.next) {
			return fmt.Errorf("%s: unknown state %q in annotation", me.x.position(a.pos), a.next)
		}
		me.add(Transition{Machine: me.cfg.Name, From: a.from, Event: a.event,
			Next: a.next, Pos: me.x.position(a.pos), Source: "annot"})
	}
	found := false
	for _, ep := range me.cfg.EntryPoints {
		fi := me.lookupMethod(ep.Recv, ep.Method)
		if fi == nil {
			continue // fixture packages may implement a subset
		}
		found = true
		w := &walker{me: me, events: ep.Events}
		if w.events == nil {
			w.events = me.wired
		}
		c := ctx{event: ep.Event, vars: map[types.Object]string{}}
		w.walkFunc(fi, c, nil)
	}
	if !found && len(me.cfg.EntryPoints) > 0 {
		return fmt.Errorf("protomodel: no entry point of machine %q found in %s",
			me.cfg.Name, me.x.pkg.Path)
	}
	if me.overflow {
		return fmt.Errorf("protomodel: machine %q: walk exceeded %d steps (path explosion; model would be incomplete)",
			me.cfg.Name, maxSteps)
	}
	return nil
}

func (me *machineExtract) lookupMethod(recv, method string) *funcInfo {
	for obj, fi := range me.x.funcs {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Name() != method {
			continue
		}
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			continue
		}
		if named := namedOf(sig.Recv().Type()); named != nil && named.Obj().Name() == recv {
			return fi
		}
	}
	return nil
}

func (me *machineExtract) add(t Transition) {
	if _, ok := me.transitions[t.Key()]; !ok {
		me.transitions[t.Key()] = t
	}
}

func (me *machineExtract) addPair(p Pair) {
	k := p.State + "\x00" + p.Event
	if _, ok := me.pairs[k]; !ok {
		me.pairs[k] = p
	}
}

func (me *machineExtract) finish() *Machine {
	mc := &Machine{
		Name:       me.cfg.Name,
		Stable:     append([]string(nil), me.stable...),
		Events:     append([]string(nil), me.eventList...),
		WireEvents: append([]string(nil), me.wired...),
	}
	mc.States = append(append([]string(nil), me.stable...), me.busyNames...)
	for _, t := range me.transitions {
		mc.Transitions = append(mc.Transitions, t)
	}
	for _, p := range me.pairs {
		mc.Pairs = append(mc.Pairs, p)
	}
	mc.finalize()
	return mc
}

// ctx is the walker's abstract machine context along one path.
type ctx struct {
	states []string // possible model states, sorted; nil = any ("*")
	event  string   // current event; "" = unknown
	vars   map[types.Object]string
	pos    token.Pos // last visited statement, provenance fallback
}

func (c ctx) clone() ctx {
	nc := ctx{event: c.event, pos: c.pos}
	nc.states = append([]string(nil), c.states...)
	nc.vars = make(map[types.Object]string, len(c.vars))
	for k, v := range c.vars {
		nc.vars[k] = v
	}
	return nc
}

// key renders the context for the recursion guard.
func (c ctx) key() string {
	var vs []string
	for k, v := range c.vars {
		vs = append(vs, k.Name()+"="+v)
	}
	sort.Strings(vs)
	return c.event + "|" + strings.Join(c.states, ",") + "|" + strings.Join(vs, ",")
}

// narrow is the refinement a condition applies to one branch.
type narrow struct {
	states []string // nil = no information; else intersect with ctx
	event  string
	vars   map[types.Object]string
}

func intersect(a, b []string) []string {
	if a == nil {
		return append([]string(nil), b...)
	}
	if b == nil {
		return append([]string(nil), a...)
	}
	out := []string{}
	for _, v := range a {
		for _, w := range b {
			if v == w {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

func union(a, b []string) []string {
	if a == nil || b == nil {
		return nil
	}
	out := append([]string(nil), a...)
	for _, w := range b {
		found := false
		for _, v := range out {
			if v == w {
				found = true
				break
			}
		}
		if !found {
			out = append(out, w)
		}
	}
	sort.Strings(out)
	return out
}

func subtract(universe []string, drop []string) []string {
	out := []string{}
	for _, v := range universe {
		hit := false
		for _, d := range drop {
			if v == d {
				hit = true
				break
			}
		}
		if !hit {
			out = append(out, v)
		}
	}
	return out
}

// andNarrow refines with both conditions (for the then-branch of &&).
func andNarrow(a, b narrow) narrow {
	n := narrow{states: intersect(a.states, b.states)}
	if a.states == nil && b.states == nil {
		n.states = nil
	}
	n.event = a.event
	if n.event == "" {
		n.event = b.event
	}
	if len(a.vars)+len(b.vars) > 0 {
		n.vars = map[types.Object]string{}
		for k, v := range a.vars {
			n.vars[k] = v
		}
		for k, v := range b.vars {
			n.vars[k] = v
		}
	}
	return n
}

// orNarrow keeps only what both alternatives imply (for the
// then-branch of ||): the state dimension unions, everything else
// drops unless identical.
func orNarrow(a, b narrow) narrow {
	n := narrow{states: union(a.states, b.states)}
	if a.event != "" && a.event == b.event {
		n.event = a.event
	}
	return n
}

// apply refines the context in place; reports false when the refined
// state set is empty (the branch is unreachable from this context).
func (me *machineExtract) apply(c *ctx, n narrow) bool {
	if n.states != nil {
		cur := c.states
		if cur == nil {
			cur = append(append([]string(nil), me.stable...), me.busyNames...)
		}
		c.states = intersect(cur, n.states)
		if len(c.states) == 0 {
			return false
		}
		sort.Strings(c.states)
	}
	if n.event != "" {
		c.event = n.event
	}
	for k, v := range n.vars {
		c.vars[k] = v
	}
	return true
}

// walker walks one machine's reachable code from one root, one path
// at a time.
type walker struct {
	me     *machineExtract
	events []string // the root's event set
	depth  int
}

const maxDepth = 64

func (w *walker) info() *types.Info { return w.me.x.pkg.Info }

// walkFunc enters a function body under the given context, merging
// argument bindings into the tracked variables.
func (w *walker) walkFunc(fi *funcInfo, c ctx, bind map[types.Object]string) {
	if fi.stop || w.depth >= maxDepth {
		return
	}
	nc := c.clone()
	for k, v := range bind {
		nc.vars[k] = v
	}
	if fi.event != "" {
		// A new logical event begins here (Evict); the caller's state
		// narrowing concerned a different line, so reset it.
		nc.event = fi.event
		nc.states = nil
	}
	key := fmt.Sprintf("%p|%s", fi, nc.key())
	if w.me.active[key] || w.me.done[key] {
		return
	}
	w.me.active[key] = true
	defer delete(w.me.active, key)
	w.depth++
	defer func() { w.depth-- }()
	w.walkStmts(fi.decl.Body.List, &nc, true)
	// A repeat walk from an identical entry context records identical
	// facts; memoizing it keeps sequential-if path forking from going
	// exponential across call sites.
	w.me.done[key] = true
}

// terminates reports whether the statement list always leaves the
// enclosing function (syntactically: ends in return or panic).
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// walkStmts walks a statement list under the context. Branching
// statements fork: each surviving arm walks its body and then the
// remainder of the list under the arm's refined context. tail marks
// lists whose exhaustion is the end of a path (function bodies and
// their forked continuations), where a handled-pair fact is recorded.
func (w *walker) walkStmts(list []ast.Stmt, c *ctx, tail bool) {
	me := w.me
	me.steps++
	if me.steps > maxSteps {
		me.overflow = true
		return
	}
	for i := 0; i < len(list); i++ {
		me.steps++
		if me.steps > maxSteps {
			me.overflow = true
			return
		}
		c.pos = list[i].Pos()
		switch s := list[i].(type) {
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				w.walkExpr(r, c)
			}
			w.recordPair(c, s.Pos())
			return
		case *ast.IfStmt:
			if s.Init != nil {
				w.walkStmts([]ast.Stmt{s.Init}, c, false)
			}
			w.walkExpr(s.Cond, c)
			w.branchIf(s, list[i+1:], c, tail)
			return
		case *ast.SwitchStmt:
			if s.Init != nil {
				w.walkStmts([]ast.Stmt{s.Init}, c, false)
			}
			if s.Tag != nil {
				w.walkExpr(s.Tag, c)
			}
			w.branchSwitch(s, list[i+1:], c, tail)
			return
		case *ast.AssignStmt:
			w.handleAssign(s, c)
		case *ast.DeclStmt:
			w.handleDecl(s, c)
		case *ast.ExprStmt:
			w.walkExpr(s.X, c)
		case *ast.DeferStmt:
			w.walkExpr(s.Call, c)
		case *ast.GoStmt:
			w.walkExpr(s.Call, c)
		case *ast.RangeStmt:
			w.walkExpr(s.X, c)
			bc := c.clone()
			w.walkStmts(s.Body.List, &bc, false)
		case *ast.ForStmt:
			if s.Init != nil {
				w.walkStmts([]ast.Stmt{s.Init}, c, false)
			}
			if s.Cond != nil {
				w.walkExpr(s.Cond, c)
			}
			bc := c.clone()
			w.walkStmts(s.Body.List, &bc, false)
		case *ast.BlockStmt:
			w.walkStmts(s.List, c, false)
		case *ast.IncDecStmt, *ast.BranchStmt, *ast.LabeledStmt, *ast.EmptyStmt:
			// No machine-state effect.
		}
	}
	if tail {
		pos := c.pos
		if len(list) > 0 {
			pos = list[len(list)-1].End()
		}
		w.recordPair(c, pos)
	}
}

// branchIf forks the walk over an if statement: each reachable arm
// walks its body, then the remainder of the enclosing list under the
// arm's refined context.
func (w *walker) branchIf(s *ast.IfStmt, rest []ast.Stmt, c *ctx, tail bool) {
	truth, nThen, nElse := w.evalCond(s.Cond, c)

	if truth >= 0 {
		tc := c.clone()
		if w.me.apply(&tc, nThen) {
			w.walkStmts(s.Body.List, &tc, false)
			if !terminates(s.Body.List) {
				w.walkStmts(rest, &tc, tail)
			}
		} else if truth == 0 {
			truth = -1 // then-arm unreachable from this context
		}
	}
	if truth <= 0 {
		ec := c.clone()
		if !w.me.apply(&ec, nElse) {
			return
		}
		switch el := s.Else.(type) {
		case nil:
			w.walkStmts(rest, &ec, tail)
		case *ast.BlockStmt:
			w.walkStmts(el.List, &ec, false)
			if !terminates(el.List) {
				w.walkStmts(rest, &ec, tail)
			}
		case *ast.IfStmt:
			w.walkStmts(append([]ast.Stmt{el}, rest...), &ec, tail)
		}
	}
}

// branchSwitch forks over a switch statement. Switches over the
// current event select (or enumerate) event arms; switches over the
// state or transient-kind fields narrow the state set per clause.
func (w *walker) branchSwitch(s *ast.SwitchStmt, rest []ast.Stmt, c *ctx, tail bool) {
	me := w.me
	walkClause(s, func(cc *ast.CaseClause) {
		for _, e := range cc.List {
			w.walkExpr(e, c)
		}
	})

	runArm := func(body []ast.Stmt, ac ctx) {
		w.walkStmts(body, &ac, false)
		if !terminates(body) {
			w.walkStmts(rest, &ac, tail)
		}
	}

	if s.Tag == nil {
		// Condition-chain switch: treat each clause as an independent
		// guarded arm (conditions rarely narrow; single-condition
		// clauses reuse the if machinery).
		for _, cc := range clauses(s) {
			ac := c.clone()
			if len(cc.List) == 1 {
				_, nThen, _ := w.evalCond(cc.List[0], c)
				if !me.apply(&ac, nThen) {
					continue
				}
			}
			runArm(cc.Body, ac)
		}
		return
	}

	switch {
	case w.isEventExpr(s.Tag):
		w.branchEventSwitch(s, runArm, c)
	case w.isStateExpr(s.Tag):
		w.branchValueSwitch(s, runArm, c, me.states, "", me.stable)
	case me.kinds != nil && w.isKindExpr(s.Tag):
		w.branchValueSwitch(s, runArm, c, me.kinds, me.cfg.Busy.Prefix, me.busyNames)
	default:
		// Unknown tag (auxiliary enums): every clause is possible and
		// none narrows the context.
		for _, cc := range clauses(s) {
			runArm(cc.Body, c.clone())
		}
	}
}

func clauses(s *ast.SwitchStmt) []*ast.CaseClause {
	var out []*ast.CaseClause
	for _, st := range s.Body.List {
		if cc, ok := st.(*ast.CaseClause); ok {
			out = append(out, cc)
		}
	}
	return out
}

func walkClause(s *ast.SwitchStmt, fn func(*ast.CaseClause)) {
	for _, cc := range clauses(s) {
		fn(cc)
	}
}

// branchEventSwitch dispatches on the current message type: with a
// known event the matching clause runs; with an unknown event every
// case constant (and, through the default clause, every member of the
// root's event set no case names) forks its own arm.
func (w *walker) branchEventSwitch(s *ast.SwitchStmt, runArm func([]ast.Stmt, ctx), c *ctx) {
	var defaultClause *ast.CaseClause
	covered := map[string]bool{}
	matched := false
	for _, cc := range clauses(s) {
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		for _, e := range cc.List {
			ev, ok := w.eventConst(e)
			if !ok {
				continue
			}
			covered[ev] = true
			if c.event != "" {
				if ev == c.event {
					matched = true
					runArm(cc.Body, c.clone())
				}
				continue
			}
			ac := c.clone()
			ac.event = ev
			runArm(cc.Body, ac)
		}
	}
	if c.event != "" {
		if !matched {
			if defaultClause != nil {
				runArm(defaultClause.Body, c.clone())
			}
			// No default and no match: fall through past the switch.
			if defaultClause == nil {
				runArm(nil, c.clone())
			}
		}
		return
	}
	if defaultClause != nil {
		for _, ev := range w.events {
			if covered[ev] {
				continue
			}
			ac := c.clone()
			ac.event = ev
			runArm(defaultClause.Body, ac)
		}
	}
}

// branchValueSwitch dispatches on the state or kind field: each clause
// narrows the context to its case set; a default (or fall-through)
// takes the complement.
func (w *walker) branchValueSwitch(s *ast.SwitchStmt, runArm func([]ast.Stmt, ctx), c *ctx, enum *enumInfo, prefix string, universe []string) {
	me := w.me
	var defaultClause *ast.CaseClause
	var covered []string
	for _, cc := range clauses(s) {
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		var set []string
		for _, e := range cc.List {
			if name, ok := w.enumConst(e, enum); ok {
				set = append(set, prefix+name)
			}
		}
		covered = append(covered, set...)
		ac := c.clone()
		if !me.apply(&ac, narrow{states: set}) {
			continue
		}
		runArm(cc.Body, ac)
	}
	leftover := subtract(universe, covered)
	if len(leftover) == 0 {
		return
	}
	ac := c.clone()
	if !me.apply(&ac, narrow{states: leftover}) {
		return
	}
	if defaultClause != nil {
		runArm(defaultClause.Body, ac)
	} else {
		runArm(nil, ac)
	}
}

func (w *walker) recordPair(c *ctx, pos token.Pos) {
	if c.event == "" {
		return
	}
	states := c.states
	if states == nil {
		// The path completed without ever reading or writing the
		// state: the event is handled identically in every stable
		// state, leaving it unchanged.
		states = w.me.stable
	}
	for _, st := range states {
		w.me.addPair(Pair{Machine: w.me.cfg.Name, State: st, Event: c.event,
			Pos: w.me.x.position(pos)})
	}
}

func (w *walker) recordTransition(c *ctx, next string, pos token.Pos) {
	ev := c.event
	if ev == "" {
		ev = "?"
	}
	froms := c.states
	if froms == nil {
		froms = []string{"*"}
	}
	for _, from := range froms {
		w.me.add(Transition{Machine: w.me.cfg.Name, From: from, Event: ev,
			Next: next, Pos: w.me.x.position(pos), Source: "code"})
	}
}
