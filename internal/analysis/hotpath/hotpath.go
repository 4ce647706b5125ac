// Package hotpath implements the catcam-lint analyzer that proves
// functions annotated //catcam:hotpath — the steady-state classify
// path — never allocate, transitively through everything they call
// inside the module.
//
// Direct allocation causes flagged in any module function reachable
// from a hot root: make/new, map and slice literals, &composite
// literals, append outside the x = append(x, ...) caller-buffer
// pattern, capturing closures, go statements, map iteration, string
// concatenation and string<->slice conversions, interface boxing of
// non-pointer values, and dynamic calls (func values, interface
// methods) that cannot be proven allocation-free. Calls that leave
// the module are judged against a small safelist (sync/atomic,
// math/bits, mutex lock/unlock, time.Now/Since, ...); everything else
// must be annotated away.
//
// Escape hatch: //catcam:allow alloc "reason" on (or directly above)
// a statement accepts every finding inside that statement — used for
// deliberately-allocating cold branches such as sampled audits,
// fail-stop reporting and lazy warm-up.
//
// Arguments to panic() are exempt: fail-stop paths may format their
// last words.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"

	"catcam/internal/analysis/framework"
)

// Allocates is the fact exported for every module function that may
// allocate, so dependent packages can reject hot-path calls into it.
type Allocates struct {
	Reason string
}

// AFact marks Allocates as a framework fact.
func (*Allocates) AFact() {}

// Analyzer is the hotpath analyzer.
var Analyzer = &framework.Analyzer{
	Name: "hotpath",
	Doc:  "//catcam:hotpath functions must not allocate, transitively within the module",
	Run:  run,
}

type site struct {
	pos token.Pos
	msg string
}

type moduleCall struct {
	fn  *types.Func
	pos token.Pos
}

type funcInfo struct {
	obj   *types.Func
	hot   bool
	sites []site       // direct allocation causes (allow- and panic-filtered)
	calls []moduleCall // static calls to module functions (allow- and panic-filtered)
}

func run(pass *framework.Pass) error {
	allows := framework.NewAllows(pass.Fset, pass.Files)

	var order []*funcInfo
	byObj := map[*types.Func]*funcInfo{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{obj: obj, hot: framework.HasDirective(fd.Doc, "hotpath")}
			collect(pass, allows, fd, fi)
			order = append(order, fi)
			byObj[obj] = fi
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].obj.Pos() < order[j].obj.Pos() })

	// Least fixpoint: a function allocates if it has a direct cause or
	// calls an allocating module function (same package: computed here;
	// other package: imported fact).
	reason := map[*types.Func]string{}
	calleeReason := func(fn *types.Func) (string, bool) {
		if fn.Pkg() == pass.Pkg {
			if r, ok := reason[fn]; ok {
				return r, true
			}
			if byObj[fn] == nil && !isBodylessClean(fn) {
				return "has no Go body in this package", true
			}
			return "", false
		}
		var fact Allocates
		if pass.ImportObjectFact(fn, &fact) {
			return fact.Reason, true
		}
		return "", false
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range order {
			if _, done := reason[fi.obj]; done {
				continue
			}
			if len(fi.sites) > 0 {
				s := fi.sites[0]
				reason[fi.obj] = fmt.Sprintf("%s at %s", s.msg, shortPos(pass.Fset, s.pos))
				changed = true
				continue
			}
			for _, c := range fi.calls {
				if r, ok := calleeReason(c.fn); ok {
					reason[fi.obj] = truncate(fmt.Sprintf("calls %s (%s)", qualified(c.fn), r))
					changed = true
					break
				}
			}
		}
	}

	for _, fi := range order {
		if r, ok := reason[fi.obj]; ok {
			pass.ExportObjectFact(fi.obj, &Allocates{Reason: r})
		}
		if !fi.hot {
			continue
		}
		for _, s := range fi.sites {
			pass.Reportf(s.pos, "alloc", "hot path: %s", s.msg)
		}
		for _, c := range fi.calls {
			if r, ok := calleeReason(c.fn); ok {
				pass.Reportf(c.pos, "alloc", "hot path: calls %s, which allocates: %s", qualified(c.fn), r)
			}
		}
	}
	return nil
}

// isBodylessClean reports whether a same-package function without a
// collected body is nevertheless trusted (none exist in catcam today;
// this guards against assembly stubs silently passing).
func isBodylessClean(fn *types.Func) bool {
	return false
}

// collect walks fd's body recording allocation causes and module
// call-graph edges into fi.
func collect(pass *framework.Pass, allows *framework.Allows, fd *ast.FuncDecl, fi *funcInfo) {
	info := pass.TypesInfo

	record := func(pos token.Pos, stack []ast.Node, msg string) {
		if inPanicArgs(info, stack) || allows.Allowed("alloc", pos, stack) {
			return
		}
		fi.sites = append(fi.sites, site{pos: pos, msg: msg})
	}

	framework.WalkStack(fd, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			visitCall(pass, allows, fi, record, n, stack)

		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Map:
				record(n.Pos(), stack, "map literal allocates")
			case *types.Slice:
				record(n.Pos(), stack, "slice literal allocates")
			}

		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					record(n.Pos(), stack, "address of composite literal escapes to the heap")
				}
			}

		case *ast.FuncLit:
			if name, ok := captures(info, pass.Pkg, n); ok {
				record(n.Pos(), stack, fmt.Sprintf("closure captures %s and may escape to the heap", name))
			}

		case *ast.RangeStmt:
			if _, ok := info.TypeOf(n.X).Underlying().(*types.Map); ok {
				record(n.Pos(), stack, "ranges over a map (iteration-order dependent, hidden iterator)")
			}

		case *ast.GoStmt:
			record(n.Pos(), stack, "go statement allocates a goroutine")

		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.TypeOf(n)) && info.Types[n].Value == nil {
				record(n.Pos(), stack, "string concatenation allocates")
			}

		case *ast.AssignStmt:
			for i := range n.Lhs {
				if i >= len(n.Rhs) || len(n.Lhs) != len(n.Rhs) {
					break
				}
				checkBox(info, record, stack, info.TypeOf(n.Lhs[i]), n.Rhs[i], "assignment")
			}

		case *ast.ReturnStmt:
			if sig := enclosingSig(info, stack, n); sig != nil && sig.Results().Len() == len(n.Results) {
				for i, res := range n.Results {
					checkBox(info, record, stack, sig.Results().At(i).Type(), res, "return")
				}
			}

		case *ast.SelectorExpr:
			// Bound method value: binding a receiver allocates.
			if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
				if parent := framework.ParentOf(stack); parent != nil {
					if call, ok := parent.(*ast.CallExpr); ok && call.Fun == n {
						break // ordinary method call, handled above
					}
				}
				record(n.Pos(), stack, fmt.Sprintf("method value %s binds its receiver (allocates)", n.Sel.Name))
			}
		}
	})
}

// visitCall classifies one call expression.
func visitCall(pass *framework.Pass, allows *framework.Allows, fi *funcInfo,
	record func(token.Pos, []ast.Node, string), call *ast.CallExpr, stack []ast.Node) {

	info := pass.TypesInfo
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if info.Types[ix.X].IsType() || isFuncIdent(info, ix.X) {
			fun = ast.Unparen(ix.X) // generic instantiation
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}

	// Conversion T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			checkConversion(info, record, stack, call, tv.Type, info.TypeOf(call.Args[0]))
		}
		return
	}

	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Builtin:
			visitBuiltin(info, record, obj.Name(), call, stack)
		case *types.Func:
			visitStatic(pass, allows, fi, record, obj, call, stack)
		case *types.TypeName:
			// conversion, handled above
		default:
			record(call.Pos(), stack, fmt.Sprintf("dynamic call through %s cannot be proven allocation-free", fun.Name))
		}

	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				fn := sel.Obj().(*types.Func)
				if recv := sel.Recv(); sel.Kind() == types.MethodVal && types.IsInterface(recv) {
					record(call.Pos(), stack, fmt.Sprintf("call through interface method %s cannot be proven allocation-free", fn.Name()))
					return
				}
				visitStatic(pass, allows, fi, record, fn, call, stack)
			case types.FieldVal:
				record(call.Pos(), stack, fmt.Sprintf("dynamic call through field %s cannot be proven allocation-free", fun.Sel.Name))
			}
			return
		}
		// Package-qualified reference pkg.F.
		switch obj := info.Uses[fun.Sel].(type) {
		case *types.Func:
			visitStatic(pass, allows, fi, record, obj, call, stack)
		case *types.Builtin:
			visitBuiltin(info, record, obj.Name(), call, stack)
		case *types.TypeName:
			// conversion, handled above
		default:
			record(call.Pos(), stack, fmt.Sprintf("dynamic call through %s cannot be proven allocation-free", fun.Sel.Name))
		}

	case *ast.FuncLit:
		// Immediately-invoked literal: its body is walked as part of
		// the enclosing function; captures are flagged at the literal.

	default:
		record(call.Pos(), stack, "dynamic call cannot be proven allocation-free")
	}
}

func visitBuiltin(info *types.Info, record func(token.Pos, []ast.Node, string),
	name string, call *ast.CallExpr, stack []ast.Node) {

	switch name {
	case "make":
		record(call.Pos(), stack, "make allocates")
	case "new":
		record(call.Pos(), stack, "new allocates")
	case "append":
		if !isSelfAppend(call, stack) {
			record(call.Pos(), stack, "append outside the x = append(x, ...) caller-buffer pattern may allocate")
		}
	case "print", "println":
		record(call.Pos(), stack, name+" allocates")
	}
}

// isSelfAppend reports the amortized caller-buffer idiom
// x = append(x, ...) (including selector/index targets), which the
// hot path uses with pre-sized buffers.
func isSelfAppend(call *ast.CallExpr, stack []ast.Node) bool {
	if len(call.Args) == 0 {
		return false
	}
	parent := framework.ParentOf(stack)
	asg, ok := parent.(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 || asg.Rhs[0] != call {
		return false
	}
	return types.ExprString(asg.Lhs[0]) == types.ExprString(call.Args[0])
}

func visitStatic(pass *framework.Pass, allows *framework.Allows, fi *funcInfo,
	record func(token.Pos, []ast.Node, string), fn *types.Func, call *ast.CallExpr, stack []ast.Node) {

	info := pass.TypesInfo
	if fn.Pkg() == nil {
		return
	}
	if !pass.InModule(fn.Pkg()) {
		if !safeExternal(fn) {
			record(call.Pos(), stack, fmt.Sprintf("calls %s, which is outside the module and not on the allocation-free safelist", qualified(fn)))
			return
		}
	} else {
		if !inPanicArgs(info, stack) && !allows.Allowed("alloc", call.Pos(), stack) {
			fi.calls = append(fi.calls, moduleCall{fn: fn, pos: call.Pos()})
		}
	}
	if sig, ok := info.Types[call.Fun].Type.(*types.Signature); ok {
		checkArgBoxing(info, record, stack, call, sig)
	}
}

// safeExternal is the curated safelist of out-of-module callees known
// not to allocate on their fast paths.
func safeExternal(fn *types.Func) bool {
	pkg := fn.Pkg().Path()
	name := fn.Name()
	switch pkg {
	case "sync/atomic", "math/bits":
		return true
	case "math":
		// Bit-pattern conversions are compiler intrinsics (one MOV).
		return name == "Float64bits" || name == "Float64frombits" ||
			name == "Float32bits" || name == "Float32frombits"
	case "runtime":
		return name == "KeepAlive" || name == "Gosched"
	case "time":
		if recv := framework.ReceiverNamed(fn); recv != nil && recv.Obj().Name() == "Duration" {
			switch name {
			case "Nanoseconds", "Microseconds", "Milliseconds", "Seconds":
				return true
			}
			return false
		}
		return name == "Now" || name == "Since"
	case "errors":
		return name == "Is"
	case "sync":
		recv := framework.ReceiverNamed(fn)
		if recv == nil {
			return false
		}
		switch recv.Obj().Name() {
		case "Mutex", "RWMutex":
			switch name {
			case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
				return true
			}
		case "WaitGroup":
			switch name {
			case "Add", "Done", "Wait":
				return true
			}
		}
	}
	return false
}

func checkConversion(info *types.Info, record func(token.Pos, []ast.Node, string),
	stack []ast.Node, call *ast.CallExpr, dst, src types.Type) {

	if src == nil || info.Types[call].Value != nil { // constant conversions are free
		return
	}
	du, su := dst.Underlying(), src.Underlying()
	switch {
	case isString(du) && !isString(su):
		record(call.Pos(), stack, "conversion to string allocates")
	case !isString(du) && isString(su):
		if _, ok := du.(*types.Slice); ok {
			record(call.Pos(), stack, "conversion of string to slice allocates")
		}
	case types.IsInterface(dst) && !types.IsInterface(src) && !pointerLike(src):
		record(call.Pos(), stack, fmt.Sprintf("conversion boxes %s into %s (allocates)", src, dst))
	}
}

func checkArgBoxing(info *types.Info, record func(token.Pos, []ast.Node, string),
	stack []ast.Node, call *ast.CallExpr, sig *types.Signature) {

	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		checkBox(info, record, stack, pt, arg, "argument")
	}
}

// checkBox flags storing a concrete non-pointer value into an
// interface-typed destination.
func checkBox(info *types.Info, record func(token.Pos, []ast.Node, string),
	stack []ast.Node, dst types.Type, src ast.Expr, what string) {

	if dst == nil || !types.IsInterface(dst) {
		return
	}
	st := info.TypeOf(src)
	if st == nil || types.IsInterface(st) || pointerLike(st) {
		return
	}
	if b, ok := st.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	record(src.Pos(), stack, fmt.Sprintf("%s boxes %s into interface %s (allocates)", what, st, dst))
}

// pointerLike reports single-word reference types that convert to an
// interface without allocating.
func pointerLike(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// captures reports whether lit closes over any variable declared
// outside it (excluding package-level variables).
func captures(info *types.Info, pkg *types.Package, lit *ast.FuncLit) (string, bool) {
	var name string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || !v.Pos().IsValid() {
			return true
		}
		if v.Parent() == pkg.Scope() || v.Parent() == types.Universe {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			name = v.Name()
		}
		return true
	})
	return name, name != ""
}

// inPanicArgs reports whether the node whose ancestor stack is given
// sits inside the arguments of a panic() call: fail-stop paths are
// exempt from allocation findings.
func inPanicArgs(info *types.Info, stack []ast.Node) bool {
	for _, n := range stack {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
				return true
			}
		}
	}
	return false
}

func isFuncIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, ok = info.Uses[id].(*types.Func)
	return ok
}

func enclosingSig(info *types.Info, stack []ast.Node, ret *ast.ReturnStmt) *types.Signature {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			sig, _ := info.TypeOf(f).(*types.Signature)
			return sig
		case *ast.FuncDecl:
			if obj, ok := info.Defs[f.Name].(*types.Func); ok {
				return obj.Type().(*types.Signature)
			}
			return nil
		}
	}
	return nil
}

func qualified(fn *types.Func) string {
	prefix := ""
	if fn.Pkg() != nil {
		prefix = fn.Pkg().Name() + "."
	}
	if named := framework.ReceiverNamed(fn); named != nil {
		return fmt.Sprintf("%s(*%s).%s", prefix, named.Obj().Name(), fn.Name())
	}
	return prefix + fn.Name()
}

func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

func truncate(s string) string {
	const max = 240
	if len(s) <= max {
		return s
	}
	return s[:max] + "..."
}
