package lint

import (
	"go/ast"
	"go/types"
)

// DeadlinePass enforces budget propagation along the serving path (§5.2:
// K-hop assembly fans out one RPC per hop per partition, and the paper's
// tail-latency claims assume the whole fan-out shares one deadline):
//
//  1. Inside a handler that receives an rpc.Ctx, every Call/CallTraced
//     timeout must derive from that inbound budget (ctx.Remaining(),
//     ctx.Deadline, or a value computed from them) — never a fresh
//     constant, which would let a single hop outlive its caller's wait.
//  2. Inside a bounded loop (the K-hop/partition fan-out shape), a
//     loop-invariant timeout multiplies by the iteration count: the
//     worst-case wait of the whole loop is iterations × timeout. The
//     timeout must be recomputed per iteration from a loop-entry deadline
//     (e.g. time.Until(deadline)).
//  3. A handler registered via Server.Handle has no access to the inbound
//     budget; if its body issues RPC calls it must be registered via
//     HandleCtx instead so the budget can be forwarded.
var DeadlinePass = &Analyzer{
	Name: "deadlinepass",
	Doc:  "rpc call timeout not derived from the inbound deadline budget",
	Run:  runDeadlinePass,
}

func runDeadlinePass(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkDeadlineScope(pass, fd.Type, fd.Body)
		}
	}
}

// checkDeadlineScope applies the rules to one function scope. Nested
// function literals that take their own rpc.Ctx are independent scopes
// (the handler-literal shape) and are checked recursively.
func checkDeadlineScope(pass *Pass, ftype *ast.FuncType, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	ctxParams := ctxParamObjects(info, ftype)
	if len(ctxParams) > 0 {
		checkCtxBudget(pass, body, ctxParams)
	} else {
		checkLoopTimeouts(pass, body)
	}
	checkHandlerRegistrations(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			if nested := ctxParamObjects(info, lit.Type); len(nested) > 0 {
				checkDeadlineScope(pass, lit.Type, lit.Body)
				return false
			}
		}
		return true
	})
}

// ctxParamObjects returns the parameter objects whose (pointer-stripped)
// type is a named type called Ctx — the rpc context carrying the inbound
// deadline budget.
func ctxParamObjects(info *types.Info, ftype *ast.FuncType) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if ftype.Params == nil {
		return out
	}
	for _, field := range ftype.Params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj == nil {
				continue
			}
			t := obj.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Name() == "Ctx" {
				out[obj] = true
			}
		}
	}
	return out
}

// checkCtxBudget enforces rule 1: within a scope holding an rpc.Ctx, every
// rpc call timeout must transitively mention the ctx (directly or through a
// local derived from it). Nested literals with their own Ctx are skipped —
// they are scopes of their own.
func checkCtxBudget(pass *Pass, body *ast.BlockStmt, ctxParams map[types.Object]bool) {
	info := pass.Pkg.Info
	tainted := taintedLocals(info, body, ctxParams)
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			if nested := ctxParamObjects(info, lit.Type); len(nested) > 0 {
				return false
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, timeout := rpcCallTimeout(info, call)
		if sel == nil {
			return true
		}
		if !mentionsAny(info, timeout, tainted) {
			pass.Reportf(timeout.Pos(), "%s timeout inside an rpc.Ctx handler must derive from the inbound budget (ctx.Remaining()), not a fresh value",
				sel.Sel.Name)
		}
		return true
	})
}

// checkLoopTimeouts enforces rule 2: rpc calls inside bounded loops must
// recompute their timeout each iteration. A timeout expression containing
// a call (time.Until(deadline), ctx.Remaining(), min(...)) or naming a
// variable declared inside the loop body counts as recomputed; anything
// else — a constant, a field read, a variable fixed before the loop — is
// loop-invariant and multiplies by the iteration count.
func checkLoopTimeouts(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	var visit func(n ast.Node, loop *ast.BlockStmt) bool
	visit = func(n ast.Node, loop *ast.BlockStmt) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its own scope, checked separately
		case *ast.ForStmt:
			if n.Cond == nil && n.Init == nil && n.Post == nil {
				// `for {}` retry/poll loops run until success or shutdown;
				// they are not the bounded fan-out shape this rule targets.
				return true
			}
			ast.Inspect(n.Body, func(m ast.Node) bool { return visit(m, n.Body) })
			return false
		case *ast.RangeStmt:
			ast.Inspect(n.Body, func(m ast.Node) bool { return visit(m, n.Body) })
			return false
		case *ast.CallExpr:
			if loop == nil {
				return true
			}
			sel, timeout := rpcCallTimeout(info, n)
			if sel == nil {
				return true
			}
			if containsCall(timeout) || declaredWithin(info, timeout, loop) {
				return true
			}
			pass.Reportf(timeout.Pos(), "loop-invariant %s timeout: the loop's worst-case wait is iterations x timeout; derive it per iteration from a loop-entry deadline (time.Until)",
				sel.Sel.Name)
		}
		return true
	}
	ast.Inspect(body, func(n ast.Node) bool { return visit(n, nil) })
}

// checkHandlerRegistrations enforces rule 3: Handle on a Server registers
// a budget-blind handler; if the handler body issues rpc calls, it must be
// registered through HandleCtx. The handler body is resolved through the
// module index, so a method value defined in a sibling package is still
// seen.
func checkHandlerRegistrations(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Handle" {
			return true
		}
		tv, ok := info.Types[sel.X]
		if !ok || !isServerType(tv.Type) {
			return true
		}
		handlerBody := resolveFuncBody(pass, call.Args[1])
		if handlerBody == nil {
			return true
		}
		issues := false
		ast.Inspect(handlerBody, func(m ast.Node) bool {
			if c, ok := m.(*ast.CallExpr); ok {
				if s, _ := rpcCallTimeout(info, c); s != nil {
					issues = true
				}
			}
			return !issues
		})
		if issues {
			pass.Reportf(call.Pos(), "handler registered via Handle issues rpc calls but cannot see the inbound budget; register it via HandleCtx and forward ctx.Remaining()")
		}
		return true
	})
}

// rpcCallTimeout matches Call/CallTraced on a Client-typed receiver and
// returns the selector and the trailing timeout argument, or (nil, nil).
func rpcCallTimeout(info *types.Info, call *ast.CallExpr) (*ast.SelectorExpr, ast.Expr) {
	if len(call.Args) == 0 {
		return nil, nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !rpcCallMethods[sel.Sel.Name] {
		return nil, nil
	}
	tv, ok := info.Types[sel.X]
	if !ok || !isClientType(tv.Type) {
		return nil, nil
	}
	last := call.Args[len(call.Args)-1]
	if ltv, ok := info.Types[last]; !ok || !isDuration(ltv.Type) {
		return nil, nil
	}
	return sel, last
}

// taintedLocals seeds the taint set with the ctx parameters and closes it
// over the scope's assignments: a local assigned from an expression that
// mentions a tainted object becomes tainted itself (budget :=
// ctx.Remaining(); t := min(budget, c.timeout)).
func taintedLocals(info *types.Info, body *ast.BlockStmt, seed map[types.Object]bool) map[types.Object]bool {
	tainted := make(map[types.Object]bool, len(seed))
	for obj := range seed {
		tainted[obj] = true
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			anyRHS := false
			for _, rhs := range assign.Rhs {
				if mentionsAny(info, rhs, tainted) {
					anyRHS = true
					break
				}
			}
			if !anyRHS {
				return true
			}
			for _, lhs := range assign.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil && !tainted[obj] {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return tainted
}

// mentionsAny reports whether expr references any object in the set.
func mentionsAny(info *types.Info, expr ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && objs[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// containsCall reports whether expr contains any call expression.
func containsCall(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

// declaredWithin reports whether expr names a variable whose declaration
// sits inside the given block — a per-iteration local.
func declaredWithin(info *types.Info, expr ast.Expr, block *ast.BlockStmt) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && obj.Pos() >= block.Pos() && obj.Pos() <= block.End() {
				found = true
			}
		}
		return !found
	})
	return found
}

// resolveFuncBody returns the body of the function expr denotes: a literal
// directly, or a declaration (possibly in another package) through the
// module index.
func resolveFuncBody(pass *Pass, expr ast.Expr) *ast.BlockStmt {
	switch e := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		return e.Body
	case *ast.Ident:
		if obj := pass.Pkg.Info.Uses[e]; obj != nil && pass.Index != nil {
			return pass.Index.Bodies[obj]
		}
	case *ast.SelectorExpr:
		if obj := pass.Pkg.Info.Uses[e.Sel]; obj != nil && pass.Index != nil {
			return pass.Index.Bodies[obj]
		}
	}
	return nil
}

// isServerType reports whether t (possibly behind a pointer) is a named
// type called Server.
func isServerType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Server"
}
