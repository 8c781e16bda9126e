package protomodel

import (
	"go/ast"
	"go/types"
	"strings"
)

// handleAssign applies an assignment's machine-state effects: state
// field writes, transient-transaction installs, and tracked-variable
// updates.
func (w *walker) handleAssign(s *ast.AssignStmt, c *ctx) {
	for _, r := range s.Rhs {
		w.walkExpr(r, c)
	}

	// `v, ok := payload.(T)`: a later `if ok` (or `if !ok`) confirms
	// the payload event.
	if len(s.Lhs) == 2 && len(s.Rhs) == 1 {
		if ta, ok := s.Rhs[0].(*ast.TypeAssertExpr); ok && ta.Type != nil {
			if name := w.typeName(ta.Type); name != "" {
				if ev, mapped := w.me.cfg.Payloads[name]; mapped {
					if id, ok := s.Lhs[1].(*ast.Ident); ok {
						if obj := w.info().ObjectOf(id); obj != nil {
							c.vars[obj] = "ok:" + ev
						}
					}
				}
			}
			return
		}
	}
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		w.assignOne(lhs, s.Rhs[i], c)
	}
}

func (w *walker) assignOne(lhs, rhs ast.Expr, c *ctx) {
	me := w.me

	// <entry>.State = <state>
	if w.isStateExpr(lhs) {
		next := w.resolveStateValue(rhs, c)
		w.recordTransition(c, next, lhs.Pos())
		if next == "?" {
			c.states = nil
		} else {
			c.states = []string{next}
		}
		return
	}

	// <entry>.busy = &txn{kind: ...} / tracked var / nil
	if me.cfg.Busy != nil && w.isBusyField(lhs) {
		if w.info().Types[rhs].IsNil() {
			// Clearing busy keeps the context in the transient state:
			// the transition out of it is the State write (or entry
			// delete) that follows on the same path.
			return
		}
		if name, ok := w.resolveBusyValue(rhs, c); ok {
			w.recordTransition(c, name, lhs.Pos())
			c.states = []string{name}
		}
		return
	}

	// Local variable tracking: state-typed and transaction-typed
	// temporaries.
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		obj := w.info().ObjectOf(id)
		if obj == nil {
			return
		}
		if types.Identical(obj.Type(), me.states.typ) {
			if name := w.resolveStateValue(rhs, c); name != "?" {
				c.vars[obj] = name
			} else {
				delete(c.vars, obj)
			}
			return
		}
		if me.cfg.Busy != nil && w.isBusyStructPtr(obj.Type()) {
			if name, ok := w.resolveBusyValue(rhs, c); ok {
				c.vars[obj] = name
			} else {
				delete(c.vars, obj)
			}
		}
	}
}

// resolveStateValue resolves rhs to a stable-state display name, or
// "?" when the walker cannot see the value.
func (w *walker) resolveStateValue(rhs ast.Expr, c *ctx) string {
	if name, ok := w.enumConst(rhs, w.me.states); ok {
		return name
	}
	if id, ok := ast.Unparen(rhs).(*ast.Ident); ok {
		if obj := w.info().ObjectOf(id); obj != nil {
			if v, tracked := c.vars[obj]; tracked && !strings.HasPrefix(v, "ok:") {
				return v
			}
		}
	}
	return "?"
}

// resolveBusyValue resolves rhs to a busy:<kind> display name: a
// &txn{kind: ...} literal, a call that builds the record from a
// txn{kind: ...} literal argument (a pooled constructor), or a tracked
// transaction variable.
func (w *walker) resolveBusyValue(rhs ast.Expr, c *ctx) (string, bool) {
	me := w.me
	if u, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok {
		if cl, ok := u.X.(*ast.CompositeLit); ok && w.isBusyStructPtr(w.info().TypeOf(rhs)) {
			return w.busyKind(cl), true
		}
	}
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && w.isBusyStructPtr(w.info().TypeOf(rhs)) {
		for _, arg := range call.Args {
			cl, ok := ast.Unparen(arg).(*ast.CompositeLit)
			if ok && w.isBusyStructPtr(types.NewPointer(w.info().TypeOf(cl))) {
				return w.busyKind(cl), true
			}
		}
	}
	if id, ok := ast.Unparen(rhs).(*ast.Ident); ok {
		if obj := w.info().ObjectOf(id); obj != nil {
			if v, tracked := c.vars[obj]; tracked && strings.HasPrefix(v, me.cfg.Busy.Prefix) {
				return v, true
			}
		}
	}
	return "", false
}

// busyKind reads the kind field of a transaction literal.
func (w *walker) busyKind(cl *ast.CompositeLit) string {
	me := w.me
	kind := "none"
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == me.cfg.Busy.KindField {
			if name, ok := w.enumConst(kv.Value, me.kinds); ok {
				kind = name
			}
		}
	}
	return me.cfg.Busy.Prefix + kind
}

// isBusyField reports whether lhs is the entry's transaction field.
func (w *walker) isBusyField(lhs ast.Expr) bool {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != w.me.cfg.Busy.Field {
		return false
	}
	return w.isBusyStructPtr(w.info().TypeOf(lhs))
}

func (w *walker) isBusyStructPtr(t types.Type) bool {
	if _, ok := t.(*types.Pointer); !ok {
		return false
	}
	named := namedOf(t)
	return named != nil && named.Obj().Name() == w.me.cfg.Busy.Struct &&
		named.Obj().Pkg() == w.me.x.pkg.Types
}

// handleDecl tracks `var st StateType` declarations (zero value).
func (w *walker) handleDecl(s *ast.DeclStmt, c *ctx) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			w.walkExpr(v, c)
		}
		if len(vs.Values) > 0 {
			continue
		}
		for _, name := range vs.Names {
			obj := w.info().ObjectOf(name)
			if obj == nil || !types.Identical(obj.Type(), w.me.states.typ) {
				continue
			}
			if zero, ok := w.me.states.nameOf(0); ok {
				c.vars[obj] = zero
			}
		}
	}
}

// walkExpr visits an expression for machine-relevant calls and walks
// function literals (protocol continuations) under the current
// context.
func (w *walker) walkExpr(e ast.Expr, c *ctx) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			cc := c.clone()
			w.walkStmts(n.Body.List, &cc, true)
			return false
		case *ast.CallExpr:
			w.handleCall(n, c)
		}
		return true
	})
}

// handleCall classifies one call: entry deletion, cache invalidation,
// line installs, protocol-error reports, and interprocedural descent
// into same-package functions.
func (w *walker) handleCall(call *ast.CallExpr, c *ctx) {
	me := w.me
	// A pooled record handed to a call is a continuation, like a
	// function literal argument: its Run (engine.Runner) and TxDone
	// (TxCallback) methods are walked here, under the caller's context.
	for _, arg := range call.Args {
		w.walkCallbacks(arg, c)
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		if fi := me.x.funcs[w.info().ObjectOf(fn)]; fi != nil {
			w.walkFunc(fi, *c, w.bindArgs(fi, call, c))
		}
	case *ast.SelectorExpr:
		obj, _ := w.info().ObjectOf(fn.Sel).(*types.Func)
		if obj == nil {
			return
		}
		sig, _ := obj.Type().(*types.Signature)
		if me.cfg.ErrorMethod != "" && obj.Name() == me.cfg.ErrorMethod &&
			obj.Pkg() == me.x.pkg.Types && sig != nil && sig.Recv() != nil {
			w.recordTransition(c, "error", call.Pos())
			return
		}
		if w.matchesTableDelete(obj) {
			w.recordTransition(c, me.cfg.Invalid, call.Pos())
			c.states = []string{me.cfg.Invalid}
			return
		}
		if w.matchesTarget(obj, me.cfg.InvalidatePkg, me.cfg.InvalidateRecv, me.cfg.InvalidateMethod) {
			w.recordTransition(c, me.cfg.Invalid, call.Pos())
			c.states = []string{me.cfg.Invalid}
			return
		}
		if w.matchesTarget(obj, me.cfg.InstallPkg, me.cfg.InstallRecv, me.cfg.InstallMethod) {
			next := "?"
			if me.cfg.InstallStateArg < len(call.Args) {
				next = w.resolveStateValue(call.Args[me.cfg.InstallStateArg], c)
			}
			w.recordTransition(c, next, call.Pos())
			if next == "?" {
				c.states = nil
			} else {
				c.states = []string{next}
			}
			return
		}
		if fi := me.x.funcs[obj]; fi != nil {
			w.walkFunc(fi, *c, w.bindArgs(fi, call, c))
		}
	}
}

// walkCallbacks walks the Run and TxDone methods of arg's type under
// the context when that type is a pointer to a package type (a pooled
// record).
func (w *walker) walkCallbacks(arg ast.Expr, c *ctx) {
	t := w.info().TypeOf(arg)
	named := namedOf(t)
	if _, isPtr := t.(*types.Pointer); !isPtr || named == nil || named.Obj().Pkg() != w.me.x.pkg.Types {
		return
	}
	for _, name := range [...]string{"Run", "TxDone"} {
		obj, _, _ := types.LookupFieldOrMethod(t, true, named.Obj().Pkg(), name)
		if fn, ok := obj.(*types.Func); ok {
			if fi := w.me.x.funcs[fn]; fi != nil {
				w.walkFunc(fi, *c, nil)
			}
		}
	}
}

// matchesTarget reports whether the function is <pkg>.<recv>.<method>.
func (w *walker) matchesTarget(obj *types.Func, pkg, recv, method string) bool {
	if method == "" || obj.Name() != method {
		return false
	}
	if obj.Pkg() == nil || obj.Pkg().Path() != pkg {
		return false
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	named := namedOf(sig.Recv().Type())
	return named != nil && named.Obj().Name() == recv
}

// matchesTableDelete reports whether the method call is the flat
// table's delete — `t.del(line)` on a lineTable whose element type is
// *DeleteElem — which drops the entry.
func (w *walker) matchesTableDelete(obj *types.Func) bool {
	me := w.me
	if me.cfg.DeleteElem == "" || me.cfg.DeleteTableMethod == "" ||
		obj.Name() != me.cfg.DeleteTableMethod || obj.Pkg() != w.me.x.pkg.Types {
		return false
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	recv := namedOf(sig.Recv().Type())
	if recv == nil || recv.Obj().Name() != me.cfg.DeleteTableRecv {
		return false
	}
	args := recv.TypeArgs()
	if args == nil || args.Len() != 1 {
		return false
	}
	elem := namedOf(args.At(0))
	return elem != nil && elem.Obj().Name() == me.cfg.DeleteElem &&
		elem.Obj().Pkg() == me.x.pkg.Types
}

// bindArgs maps constant or tracked argument values onto the callee's
// parameters so intraprocedural narrowing continues across the call.
func (w *walker) bindArgs(fi *funcInfo, call *ast.CallExpr, c *ctx) map[types.Object]string {
	var params []types.Object
	if fi.decl.Type.Params != nil {
		for _, f := range fi.decl.Type.Params.List {
			for _, name := range f.Names {
				params = append(params, w.info().ObjectOf(name))
			}
		}
	}
	bind := map[types.Object]string{}
	for i, arg := range call.Args {
		if i >= len(params) || params[i] == nil {
			continue
		}
		if name, ok := w.enumConst(arg, w.me.states); ok {
			bind[params[i]] = name
			continue
		}
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if obj := w.info().ObjectOf(id); obj != nil {
				if v, tracked := c.vars[obj]; tracked && !strings.HasPrefix(v, "ok:") {
					bind[params[i]] = v
				}
			}
		}
	}
	return bind
}
