// Package poolcheck implements the catcam-lint analyzer that proves
// pooled scratch memory never outlives its checkout. Types marked
// //catcam:scratch (device read scratch, flowtable classify scratch,
// cluster fan-out rounds) are per-goroutine working sets cycled
// through a sync.Pool: a reference to one that survives into a
// published snapshot, a global, or an exported function's return value
// is a logical-staleness bug the race detector cannot see — the next
// checkout silently rewrites memory someone else still reads.
//
// Obligations:
//
//   - every sync.Pool checkout asserted to an in-module named struct
//     (pool.Get().(*T)) requires T to be marked //catcam:scratch, so
//     the pooled working sets are all under proof — and deleting a
//     single //catcam:scratch mark fails the build at the checkout;
//   - no tainted reference — a value of scratch type, or memory
//     reached through one — may be assigned to a package-level
//     variable, assigned into a field or element of a non-scratch
//     object, or returned from an exported function.
//
// Freshly constructed locals (sc := &T{...}) are not tainted: a
// constructor building the scratch that will live in the pool is the
// legitimate way these objects are born. Channel sends are deliberately
// out of scope: handing a scratch to a worker over a channel is
// ownership transfer, the cluster fan-out's round-trip pattern.
// Escape hatch: //catcam:allow scratch "reason".
package poolcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"catcam/internal/analysis/framework"
)

// Analyzer is the poolcheck analyzer.
var Analyzer = &framework.Analyzer{
	Name: "poolcheck",
	Doc:  "//catcam:scratch pool memory must not escape into snapshots, globals, or exported returns",
	Run:  run,
}

// ScratchFact marks a named type as pooled per-goroutine scratch,
// exported so cross-package users are held to the lifetime rules.
type ScratchFact struct{}

func (*ScratchFact) AFact() {}

type checker struct {
	pass   *framework.Pass
	info   *types.Info
	allows *framework.Allows
	local  map[*types.TypeName]bool

	// per-function state
	taint map[*types.Var]bool
	fresh map[*types.Var]bool
}

func run(pass *framework.Pass) error {
	c := &checker{
		pass:   pass,
		info:   pass.TypesInfo,
		allows: framework.NewAllows(pass.Fset, pass.Files),
		local:  map[*types.TypeName]bool{},
	}
	// Collect //catcam:scratch type marks and export the facts.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				marked := framework.HasDirective(ts.Doc, "scratch") ||
					framework.HasDirective(ts.Comment, "scratch")
				if !marked && len(gd.Specs) == 1 {
					marked = framework.HasDirective(gd.Doc, "scratch")
				}
				if !marked {
					continue
				}
				tn, ok := c.info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				if _, ok := tn.Type().Underlying().(*types.Struct); !ok {
					pass.Reportf(ts.Pos(), "scratch", "//catcam:scratch applies to struct types; %s is not a struct", ts.Name.Name)
					continue
				}
				c.local[tn] = true
				pass.ExportObjectFact(tn, &ScratchFact{})
			}
		}
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(fd)
		}
	}
	return nil
}

// isScratch reports whether t, peeled of pointers/slices/arrays, is a
// scratch-marked named type.
func (c *checker) isScratch(t types.Type) bool {
	for t != nil {
		t = types.Unalias(t)
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Slice:
			t = tt.Elem()
		case *types.Array:
			t = tt.Elem()
		case *types.Named:
			tn := tt.Obj()
			if tn.Pkg() == nil {
				return false
			}
			if tn.Pkg() == c.pass.Pkg {
				return c.local[tn]
			}
			return c.pass.ImportObjectFact(tn, new(ScratchFact))
		default:
			return false
		}
	}
	return false
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	obj, _ := c.info.Defs[fd.Name].(*types.Func)
	exported := obj != nil && obj.Exported()

	// Seed taint: parameters and receivers of scratch type carry
	// checked-out scratch in. Track fresh locals (assigned only from
	// allocations) so constructors stay clean.
	c.taint = map[*types.Var]bool{}
	c.fresh = map[*types.Var]bool{}
	seed := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := c.info.Defs[name].(*types.Var); ok && c.isScratch(v.Type()) {
					c.taint[v] = true
				}
			}
		}
	}
	seed(fd.Recv)
	seed(fd.Type.Params)

	// Two passes so taint reaches uses that precede the tainting
	// assignment in source order (loops).
	for i := 0; i < 2; i++ {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for j, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				v := c.identVar(id)
				if v == nil {
					continue
				}
				switch {
				case isFreshAlloc(as.Rhs[j]):
					if !c.taint[v] {
						c.fresh[v] = true
					}
				case c.taintedExpr(as.Rhs[j]):
					c.taint[v] = true
					delete(c.fresh, v)
				}
			}
			return true
		})
	}

	framework.WalkStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.TypeAssertExpr:
			c.checkPoolGet(n, stack)

		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return
			}
			for i, lhs := range n.Lhs {
				if !c.taintedExpr(n.Rhs[i]) {
					continue
				}
				c.checkSink(fd, lhs, n.Rhs[i], stack)
			}

		case *ast.ReturnStmt:
			// Returns inside nested function literals belong to the
			// literal, not fd: a sync.Pool New factory MUST return the
			// scratch it builds.
			if !exported || inFuncLit(stack) {
				return
			}
			for _, res := range n.Results {
				if c.taintedExpr(res) && !c.allows.Allowed("scratch", res.Pos(), stack) {
					c.pass.Reportf(res.Pos(), "scratch",
						"exported %s returns a reference into pooled scratch: the next pool checkout rewrites memory the caller still holds", fd.Name.Name)
				}
			}
		}
	})
}

// checkPoolGet enforces the checkout obligation: sync.Pool Gets
// asserted to an in-module named struct require the //catcam:scratch
// mark.
func (c *checker) checkPoolGet(ta *ast.TypeAssertExpr, stack []ast.Node) {
	call, ok := ast.Unparen(ta.X).(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Get" {
		return
	}
	recv := c.info.TypeOf(sel.X)
	if recv == nil || !isSyncPool(recv) {
		return
	}
	t := c.info.TypeOf(ta.Type)
	if t == nil {
		return
	}
	named := framework.AsNamedStruct(t)
	if named == nil {
		return
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || !(pkg == c.pass.Pkg || c.pass.InModule(pkg)) {
		return
	}
	if c.isScratch(named) {
		return
	}
	if c.allows.Allowed("scratch", ta.Pos(), stack) {
		return
	}
	c.pass.Reportf(ta.Pos(), "scratch",
		"sync.Pool checkout asserted to %s, which is not marked //catcam:scratch: pooled working sets must be under the scratch-lifetime proof", named.Obj().Name())
}

// checkSink reports tainted stores into long-lived sinks: package
// variables, and fields/elements of non-scratch objects.
func (c *checker) checkSink(fd *ast.FuncDecl, lhs, rhs ast.Expr, stack []ast.Node) {
	lhs = ast.Unparen(lhs)
	root := framework.RootIdent(lhs)

	switch l := lhs.(type) {
	case *ast.Ident:
		v := c.identVar(l)
		if v != nil && isPackageLevel(v) && !c.allows.Allowed("scratch", rhs.Pos(), stack) {
			c.pass.Reportf(rhs.Pos(), "scratch",
				"%s stores a reference into pooled scratch in package variable %s: scratch memory is rewritten at the next checkout", fd.Name.Name, v.Name())
		}
		return
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		// fallthrough to the sink analysis below
	default:
		return
	}

	if root != nil {
		v := c.identVar(root)
		if v != nil {
			if isPackageLevel(v) {
				if !c.allows.Allowed("scratch", rhs.Pos(), stack) {
					c.pass.Reportf(rhs.Pos(), "scratch",
						"%s stores a reference into pooled scratch under package variable %s: scratch memory is rewritten at the next checkout", fd.Name.Name, v.Name())
				}
				return
			}
			// Stores back into scratch itself (or anything tainted)
			// are internal reuse, not escapes. Fresh locals are the
			// object under construction — also fine.
			if c.taint[v] || c.fresh[v] || c.isScratch(v.Type()) {
				return
			}
		}
	}
	if c.allows.Allowed("scratch", rhs.Pos(), stack) {
		return
	}
	c.pass.Reportf(rhs.Pos(), "scratch",
		"%s stores a reference into pooled scratch inside a non-scratch object: the reference outlives the checkout and is rewritten by the next one", fd.Name.Name)
}

// taintedExpr reports whether e evaluates to a reference into pooled
// scratch memory.
func (c *checker) taintedExpr(e ast.Expr) bool {
	e = ast.Unparen(e)
	t := c.info.TypeOf(e)
	if t == nil || !referenceTyped(t) {
		return false
	}
	switch e := e.(type) {
	case *ast.CompositeLit:
		return false
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				return false
			}
			return c.taintedExpr(e.X)
		}
		return false
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if _, builtin := c.info.Uses[id].(*types.Builtin); builtin {
				switch id.Name {
				case "append":
					// append(xs, x...) aliases its first input's
					// backing array. A fresh first argument means a
					// fresh array, and copied elements only carry
					// taint onward if they can themselves hold
					// references (append([]int(nil), sc.report...)
					// is the canonical copy-out idiom).
					if len(e.Args) == 0 {
						return false
					}
					if c.taintedExpr(e.Args[0]) {
						return true
					}
					if st, ok := types.Unalias(t).Underlying().(*types.Slice); ok &&
						framework.TypeNoPointers(st.Elem()) {
						return false
					}
					for _, a := range e.Args[1:] {
						if c.taintedExpr(a) {
							return true
						}
					}
					return false
				default:
					return false
				}
			}
		}
		if tv, ok := c.info.Types[e.Fun]; ok && tv.IsType() {
			return len(e.Args) == 1 && c.taintedExpr(e.Args[0])
		}
		// Ordinary call: tainted when it hands out scratch (pool
		// checkout helpers like Device.getScratch).
		return c.isScratch(t)
	case *ast.TypeAssertExpr:
		return c.isScratch(t) || c.taintedExpr(e.X)
	case *ast.Ident:
		v := c.identVar(e)
		if v == nil {
			return false
		}
		if c.taint[v] {
			return true
		}
		return c.isScratch(v.Type()) && !c.fresh[v]
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.SliceExpr, *ast.StarExpr:
		if c.isScratch(t) {
			return true
		}
		if root := framework.RootIdent(e); root != nil {
			v := c.identVar(root)
			if v != nil && (c.taint[v] || (c.isScratch(v.Type()) && !c.fresh[v])) {
				return true
			}
		}
		return false
	}
	return c.isScratch(t)
}

// inFuncLit reports whether the node whose ancestor stack is given sits
// inside a function literal (rather than directly in the FuncDecl body).
func inFuncLit(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

func (c *checker) identVar(id *ast.Ident) *types.Var {
	if v, ok := c.info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := c.info.Uses[id].(*types.Var)
	return v
}

// referenceTyped reports whether values of t can alias other memory at
// all; pure values (ints, pointer-free structs) cannot leak scratch.
func referenceTyped(t types.Type) bool {
	return !framework.TypeNoPointers(t)
}

func isFreshAlloc(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			switch id.Name {
			case "make", "new":
				return true
			}
		}
	}
	return false
}

func isSyncPool(t types.Type) bool {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Pool"
}

func isPackageLevel(v *types.Var) bool {
	return v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
