package protomodel

import (
	"go/ast"
	"go/token"
	"go/types"
)

// namedOf unwraps pointers and returns the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isEventExpr reports whether e denotes the current message's type:
// the EventField selector on the message struct. Other event-typed
// values (saved request types, local temporaries) stay symbolic.
func (w *walker) isEventExpr(e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != w.me.cfg.EventField {
		return false
	}
	named := namedOf(w.info().TypeOf(sel.X))
	return named != nil && named.Obj().Name() == w.me.cfg.EventStruct &&
		named.Obj().Pkg() == w.me.x.pkg.Types
}

// isStateExpr reports whether e reads the machine's state field.
func (w *walker) isStateExpr(e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != w.me.cfg.StateField {
		return false
	}
	return types.Identical(w.info().TypeOf(e), w.me.states.typ)
}

// isKindExpr reports whether e reads the transient kind field of the
// busy transaction struct.
func (w *walker) isKindExpr(e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != w.me.cfg.Busy.KindField {
		return false
	}
	return w.me.kinds != nil && types.Identical(w.info().TypeOf(e), w.me.kinds.typ)
}

// enumConst resolves a constant expression of the enum to its display
// name.
func (w *walker) enumConst(e ast.Expr, enum *enumInfo) (string, bool) {
	tv, ok := w.info().Types[ast.Unparen(e)]
	if !ok || tv.Value == nil || !types.Identical(tv.Type, enum.typ) {
		return "", false
	}
	v, ok := exactInt(tv.Value.ExactString())
	if !ok {
		return "", false
	}
	return enum.nameOf(v)
}

func (w *walker) eventConst(e ast.Expr) (string, bool) {
	return w.enumConst(e, w.me.events)
}

// isEntryNil classifies a `X == nil` / `X != nil` comparison where X
// is the machine's entry type (a directory entry or cache line): nil
// means the Invalid state.
func (w *walker) isEntryNil(a, b ast.Expr) (ast.Expr, bool) {
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil" && w.info().Types[e].IsNil()
	}
	var x ast.Expr
	switch {
	case isNil(b):
		x = a
	case isNil(a):
		x = b
	default:
		return nil, false
	}
	cfg := w.me.cfg
	if cfg.EntryType == "" {
		return nil, false
	}
	t := w.info().TypeOf(x)
	if _, ok := t.(*types.Pointer); !ok {
		return nil, false
	}
	named := namedOf(t)
	if named == nil || named.Obj().Name() != cfg.EntryType {
		return nil, false
	}
	if cfg.EntryTypePkg == "" {
		return x, named.Obj().Pkg() == w.me.x.pkg.Types
	}
	return x, named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == cfg.EntryTypePkg
}

// evalCond evaluates a boolean condition against the context. truth is
// +1 (always true here), -1 (always false) or 0 (unknown); nThen and
// nElse are the refinements the two branches may apply.
func (w *walker) evalCond(e ast.Expr, c *ctx) (truth int, nThen, nElse narrow) {
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			t, a, b := w.evalCond(e.X, c)
			return -t, b, a
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			ta, aT, aE := w.evalCond(e.X, c)
			tb, bT, bE := w.evalCond(e.Y, c)
			t := 0
			if ta == -1 || tb == -1 {
				t = -1
			} else if ta == 1 && tb == 1 {
				t = 1
			}
			return t, andNarrow(aT, bT), orNarrow(aE, bE)
		case token.LOR:
			ta, aT, aE := w.evalCond(e.X, c)
			tb, bT, bE := w.evalCond(e.Y, c)
			t := 0
			if ta == 1 || tb == 1 {
				t = 1
			} else if ta == -1 && tb == -1 {
				t = -1
			}
			return t, orNarrow(aT, bT), andNarrow(aE, bE)
		case token.EQL, token.NEQ:
			truth, nThen, nElse = w.evalCompare(e, c)
			if e.Op == token.NEQ {
				return -truth, nElse, nThen
			}
			return truth, nThen, nElse
		}
	}
	return 0, narrow{}, narrow{}
}

// evalCompare handles `X == Y` over the dimensions the model tracks.
func (w *walker) evalCompare(e *ast.BinaryExpr, c *ctx) (truth int, nThen, nElse narrow) {
	me := w.me

	// Entry-pointer nil comparison: nil is the Invalid state.
	if _, ok := w.isEntryNil(e.X, e.Y); ok {
		nThen = narrow{states: []string{me.cfg.Invalid}}
		if me.cfg.NotNilExcludesInvalid {
			nElse = narrow{states: subtract(me.stable, []string{me.cfg.Invalid})}
		}
		return 0, nThen, nElse
	}

	classify := func(a, b ast.Expr) (truth int, nT, nE narrow, ok bool) {
		// State field vs state constant.
		if w.isStateExpr(a) {
			if name, isConst := w.enumConst(b, me.states); isConst {
				return w.stateCompare(c, name, me.stable)
			}
		}
		// Kind field vs kind constant.
		if me.kinds != nil && w.isKindExpr(a) {
			if name, isConst := w.enumConst(b, me.kinds); isConst {
				return w.stateCompare(c, me.cfg.Busy.Prefix+name, me.busyNames)
			}
		}
		// Current event vs event constant.
		if w.isEventExpr(a) {
			if ev, isConst := w.eventConst(b); isConst {
				if c.event != "" {
					if c.event == ev {
						return 1, narrow{}, narrow{}, true
					}
					return -1, narrow{}, narrow{}, true
				}
				return 0, narrow{event: ev}, narrow{}, true
			}
		}
		// Tracked local variable vs state constant.
		if obj, tracked := varOf(w, a); obj != nil {
			if name, isConst := w.enumConst(b, me.states); isConst {
				if tracked {
					if v := c.vars[obj]; v != "" {
						if v == name {
							return 1, narrow{}, narrow{}, true
						}
						return -1, narrow{}, narrow{}, true
					}
				}
				return 0, narrow{vars: map[types.Object]string{obj: name}}, narrow{}, true
			}
		}
		return 0, narrow{}, narrow{}, false
	}
	if t, nT, nE, ok := classify(e.X, e.Y); ok {
		return t, nT, nE
	}
	if t, nT, nE, ok := classify(e.Y, e.X); ok {
		return t, nT, nE
	}
	return 0, narrow{}, narrow{}
}

// varOf resolves an identifier of the state enum type.
func varOf(w *walker, e ast.Expr) (types.Object, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := w.info().ObjectOf(id)
	if obj == nil || !types.Identical(obj.Type(), w.me.states.typ) {
		return nil, false
	}
	return obj, true
}

// stateCompare evaluates `state-dimension == name` against the
// context's state set.
func (w *walker) stateCompare(c *ctx, name string, universe []string) (truth int, nThen, nElse narrow, ok bool) {
	nThen = narrow{states: []string{name}}
	nElse = narrow{states: subtract(universe, []string{name})}
	if c.states != nil {
		all, none := true, true
		for _, s := range c.states {
			if s == name {
				none = false
			} else {
				all = false
			}
		}
		// Only decide when the context stays within this dimension's
		// universe; a mixed set (stable + busy) keeps the comparison
		// open.
		inUniverse := true
		for _, s := range c.states {
			found := false
			for _, u := range universe {
				if s == u {
					found = true
					break
				}
			}
			if !found {
				inUniverse = false
				break
			}
		}
		if inUniverse {
			if all {
				return 1, nThen, nElse, true
			}
			if none {
				return -1, nThen, nElse, true
			}
		}
	}
	return 0, nThen, nElse, true
}
