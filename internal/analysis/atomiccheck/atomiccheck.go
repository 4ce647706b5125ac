// Package atomiccheck implements the catcam-lint analyzer that keeps
// atomic and plain memory accesses from mixing:
//
//   - a field or package variable that is anywhere passed to a
//     sync/atomic function (&x.f) must never be read or written with
//     plain loads/stores elsewhere in the package;
//   - values of types carrying typed atomics (atomic.Uint64 fields,
//     telemetry counters, flight-recorder samplers) must not be
//     copied: assignment from a variable or dereference, pass by
//     value, value receivers, range-value copies and by-value returns
//     are all flagged.
//
// Escape hatch: //catcam:allow atomic "reason" (e.g. an init-time
// read that provably precedes goroutine start).
package atomiccheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"catcam/internal/analysis/framework"
)

// Analyzer is the atomiccheck analyzer.
var Analyzer = &framework.Analyzer{
	Name: "atomiccheck",
	Doc:  "sync/atomic-manipulated locations must not see plain accesses, and typed atomics must not be copied",
	Run:  run,
}

func run(pass *framework.Pass) error {
	info := pass.TypesInfo
	allows := framework.NewAllows(pass.Fset, pass.Files)

	// Pass 1: every variable whose address reaches a sync/atomic call.
	atomicVars := map[*types.Var]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicFn(info, call) || len(call.Args) == 0 {
				return true
			}
			ue, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || ue.Op != token.AND {
				return true
			}
			if v := referencedVar(info, ast.Unparen(ue.X)); v != nil {
				atomicVars[v] = true
			}
			return true
		})
	}

	memo := map[types.Type]bool{}
	rel := types.RelativeTo(pass.Pkg)

	report := func(pos token.Pos, stack []ast.Node, format string, args ...any) {
		if !allows.Allowed("atomic", pos, stack) {
			pass.Reportf(pos, "atomic", format, args...)
		}
	}

	for _, file := range pass.Files {
		// Value receivers of atomic-carrying types.
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			rt := info.TypeOf(fd.Recv.List[0].Type)
			if rt == nil {
				continue
			}
			if _, isPtr := rt.(*types.Pointer); !isPtr && containsAtomic(memo, rt) {
				report(fd.Recv.Pos(), nil, "method %s has a value receiver of %s, which contains sync/atomic values", fd.Name.Name, types.TypeString(rt, rel))
			}
		}

		framework.WalkStack(file, func(n ast.Node, stack []ast.Node) {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				v, ok := info.Uses[n.Sel].(*types.Var)
				if ok && atomicVars[v] && !inAtomicArg(info, n, stack) {
					report(n.Pos(), stack, "%s is manipulated with sync/atomic; plain access may race", v.Name())
				}

			case *ast.Ident:
				v, ok := info.Uses[n].(*types.Var)
				if !ok || !atomicVars[v] || v.IsField() {
					return
				}
				if sel, ok := framework.ParentOf(stack).(*ast.SelectorExpr); ok && sel.Sel == n {
					return // handled as the selector
				}
				if !inAtomicArg(info, n, stack) {
					report(n.Pos(), stack, "%s is manipulated with sync/atomic; plain access may race", v.Name())
				}

			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return
				}
				for i, rhs := range n.Rhs {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						continue // discarded, not copied anywhere
					}
					checkCopy(info, memo, rel, report, stack, rhs, "copies")
				}

			case *ast.ReturnStmt:
				for _, res := range n.Results {
					checkCopy(info, memo, rel, report, stack, res, "returns a copy of")
				}

			case *ast.CallExpr:
				if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
					return // conversion
				}
				for _, arg := range n.Args {
					t := info.TypeOf(arg)
					if t != nil && containsAtomic(memo, t) {
						report(arg.Pos(), stack, "passes %s by value, but it contains sync/atomic values", types.TypeString(t, rel))
					}
				}

			case *ast.RangeStmt:
				if n.Value == nil {
					return
				}
				t := info.TypeOf(n.Value)
				if t != nil && containsAtomic(memo, t) {
					report(n.Value.Pos(), stack, "range copies %s values, which contain sync/atomic values", types.TypeString(t, rel))
				}
			}
		})
	}
	return nil
}

// checkCopy flags an expression whose evaluation copies an
// atomic-carrying value out of an existing location. Fresh values
// (composite literals, call results — flagged at their own returns)
// are fine.
func checkCopy(info *types.Info, memo map[types.Type]bool, rel types.Qualifier,
	report func(token.Pos, []ast.Node, string, ...any), stack []ast.Node, e ast.Expr, verb string) {

	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
	default:
		return
	}
	t := info.TypeOf(e)
	if t == nil || !containsAtomic(memo, t) {
		return
	}
	report(e.Pos(), stack, "%s %s, which contains sync/atomic values", verb, types.TypeString(t, rel))
}

// containsAtomic reports whether a value of type t embeds typed
// sync/atomic state (atomic.Uint64 and friends), directly or through
// struct/array nesting. Pointers, slices and maps reference rather
// than embed, so they are fine to copy.
func containsAtomic(memo map[types.Type]bool, t types.Type) bool {
	if v, ok := memo[t]; ok {
		return v
	}
	memo[t] = false // cycle guard
	result := false
	switch u := t.(type) {
	case *types.Named:
		if obj := u.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" {
			result = true
		} else {
			result = containsAtomic(memo, u.Underlying())
		}
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsAtomic(memo, u.Field(i).Type()) {
				result = true
				break
			}
		}
	case *types.Array:
		result = containsAtomic(memo, u.Elem())
	}
	memo[t] = result
	return result
}

// isAtomicFn reports a call to a top-level sync/atomic function.
func isAtomicFn(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == "sync/atomic"
}

// referencedVar resolves the variable (field or package/local var) an
// address-of operand names.
func referencedVar(info *types.Info, e ast.Expr) *types.Var {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		v, _ := info.Uses[e.Sel].(*types.Var)
		return v
	case *ast.Ident:
		v, _ := info.Uses[e].(*types.Var)
		return v
	case *ast.IndexExpr:
		return referencedVar(info, ast.Unparen(e.X))
	}
	return nil
}

// inAtomicArg reports whether the use sits inside the &x argument of
// a sync/atomic call — the sanctioned access form.
func inAtomicArg(info *types.Info, n ast.Node, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.UnaryExpr:
			if p.Op != token.AND {
				return false
			}
			for j := i - 1; j >= 0; j-- {
				if call, ok := stack[j].(*ast.CallExpr); ok {
					return isAtomicFn(info, call)
				}
				if _, ok := stack[j].(*ast.ParenExpr); !ok {
					return false
				}
			}
			return false
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.ParenExpr:
			// keep climbing through the addressable chain
		default:
			return false
		}
	}
	return false
}
