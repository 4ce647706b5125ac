// Package ringcheck implements the catcam-lint analyzer that proves
// the single-producer/single-consumer discipline of the ingress rings
// (internal/ingress.Ring). The ring's memory ordering is only correct
// when each end is driven by exactly one goroutine; ringcheck turns
// that from a convention into a build obligation:
//
//   - a function carries at most one of //catcam:ring-producer and
//     //catcam:ring-consumer;
//   - a ring type is any named struct with at least one role-marked
//     method. Every method of a ring type that mutates ring state —
//     stores/adds an atomic cursor field or writes into a buffer
//     slice field — must itself be role-marked, so deleting a single
//     role annotation from a push/pop method fails the build;
//   - the fields written by producer-marked ring methods and by
//     consumer-marked ring methods must be disjoint: each atomic
//     cursor, and each side-local plain field (such as a side's cached
//     copy of the other side's cursor), is owned by exactly one side.
//     A write is an atomic Store/Add/Swap/CompareAndSwap on a receiver
//     field, an assignment or ++/-- whose target is a receiver field or
//     reaches into one (r.f = v, r.f[i] = v, r.f.g++), or a builtin
//     copy into one (copy(r.f[i:], src));
//   - only functions marked with the matching role may call a
//     role-marked ring method (roles propagate across packages as
//     analyzer facts), and no role-marked function may call a
//     function of the opposite role;
//   - each package gets at most one `go` spawn site per role — one
//     statement launching the producer side, one the consumer side —
//     counting spawns of role-marked functions and of closures that
//     directly call them.
//
// Single-goroutine test drivers opt out per call/spawn site with
// //catcam:allow ring "reason".
package ringcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"catcam/internal/analysis/framework"
)

// Analyzer is the ringcheck analyzer.
var Analyzer = &framework.Analyzer{
	Name: "ringcheck",
	Doc:  "//catcam:ring-producer / //catcam:ring-consumer functions are the only drivers of each SPSC ring end",
	Run:  run,
}

// RoleFact records a function's SPSC role, exported so cross-package
// callers of ring methods are held to the discipline too.
type RoleFact struct {
	Role string // "producer" or "consumer"
}

func (*RoleFact) AFact() {}

type funcRole struct {
	decl *ast.FuncDecl
	obj  *types.Func
	role string
}

func run(pass *framework.Pass) error {
	info := pass.TypesInfo
	allows := framework.NewAllows(pass.Fset, pass.Files)

	// Collect role marks and the set of ring types (receivers of
	// locally role-marked methods).
	roles := map[*types.Func]string{}
	var marked []funcRole
	ringTypes := map[*types.TypeName]bool{}
	var decls []*ast.FuncDecl
	declObj := map[*ast.FuncDecl]*types.Func{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls = append(decls, fd)
			declObj[fd] = obj
			prod := framework.HasDirective(fd.Doc, "ring-producer")
			cons := framework.HasDirective(fd.Doc, "ring-consumer")
			if prod && cons {
				pass.Reportf(fd.Pos(), "ring", "%s is marked both //catcam:ring-producer and //catcam:ring-consumer: a function drives one end of an SPSC ring, never both", fd.Name.Name)
				continue
			}
			if !prod && !cons {
				continue
			}
			role := "producer"
			if cons {
				role = "consumer"
			}
			roles[obj] = role
			marked = append(marked, funcRole{decl: fd, obj: obj, role: role})
			pass.ExportObjectFact(obj, &RoleFact{Role: role})
			if named := framework.ReceiverNamed(obj); named != nil {
				ringTypes[named.Obj()] = true
			}
		}
	}

	// roleOf resolves a callee's role: locally marked, or a fact from
	// the defining package.
	roleOf := func(fn *types.Func) (string, bool) {
		if r, ok := roles[fn]; ok {
			return r, true
		}
		var f RoleFact
		if pass.ImportObjectFact(fn, &f) {
			return f.Role, true
		}
		return "", false
	}
	// isRingMethod reports whether fn is a method of a ring type —
	// locally, or (cross-package) any role-marked method at all, since
	// marks outside ring types only exist on driver functions we
	// defined ourselves.
	isRingMethod := func(fn *types.Func) bool {
		named := framework.ReceiverNamed(fn)
		if named == nil {
			return false
		}
		if named.Obj().Pkg() == pass.Pkg {
			return ringTypes[named.Obj()]
		}
		_, ok := roleOf(fn)
		return ok
	}

	// Per-method ring-state mutation and cursor-store collection, plus
	// the caller-discipline walk over every function body.
	type spawn struct {
		pos   token.Pos
		stack []ast.Node
	}
	spawns := map[string][]spawn{}
	fieldWrites := map[string]map[string]token.Pos{} // role -> "Type.field" -> first write position
	atomicFields := map[string]bool{}                // "Type.field" keys written atomically

	for _, fd := range decls {
		if fd.Body == nil {
			continue
		}
		obj := declObj[fd]
		callerRole, callerMarked := roles[obj], false
		if _, ok := roles[obj]; ok {
			callerMarked = true
		}
		recvNamed := framework.ReceiverNamed(obj)
		recv := framework.ReceiverVar(info, fd)
		onRingType := recvNamed != nil && ringTypes[recvNamed.Obj()]
		mutatesRing := false
		// recordWrite notes a write to receiver field f by a role-marked
		// ring method, for the disjointness rule.
		recordWrite := func(f *ast.Ident, pos token.Pos, atomic bool) {
			if !onRingType || !callerMarked {
				return
			}
			key := recvNamed.Obj().Name() + "." + f.Name
			if fieldWrites[callerRole] == nil {
				fieldWrites[callerRole] = map[string]token.Pos{}
			}
			if _, ok := fieldWrites[callerRole][key]; !ok {
				fieldWrites[callerRole][key] = pos
			}
			if atomic {
				atomicFields[key] = true
			}
		}

		framework.WalkStack(fd.Body, func(n ast.Node, stack []ast.Node) {
			switch n := n.(type) {
			case *ast.CallExpr:
				// r.cursor.Store(...) — an atomic mutation of a
				// receiver field.
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					switch sel.Sel.Name {
					case "Store", "Add", "Swap", "CompareAndSwap":
						if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok &&
							recv != nil && framework.IsIdentFor(info, inner.X, recv) && isAtomicField(info, inner.Sel) {
							if onRingType {
								mutatesRing = true
								recordWrite(inner.Sel, n.Pos(), true)
							}
						}
					}
				}
				// copy(r.buf[i:], src) — a bulk write into a receiver
				// buffer slice.
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 2 && onRingType && recv != nil {
					if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "copy" {
						if f := receiverField(info, n.Args[0], recv); f != nil {
							mutatesRing = true
							recordWrite(f, n.Args[0].Pos(), false)
						}
					}
				}
				// Caller discipline on calls to role-marked functions.
				callee := staticCallee(info, n)
				if callee == nil {
					return
				}
				calleeRole, ok := roleOf(callee)
				if !ok {
					return
				}
				switch {
				case callerMarked && callerRole != calleeRole:
					if !allows.Allowed("ring", n.Pos(), stack) {
						pass.Reportf(n.Pos(), "ring", "%s (ring-%s) calls %s (ring-%s): a function must not cross SPSC roles", framework.MethodName(obj), callerRole, framework.MethodName(callee), calleeRole)
					}
				case !callerMarked && isRingMethod(callee):
					if inSpawnedClosure(stack) {
						// The closure IS the role goroutine; the
						// one-spawn-site-per-role rule owns it.
						return
					}
					if len(stack) > 0 {
						if g, ok := stack[len(stack)-1].(*ast.GoStmt); ok && g.Call == n {
							// go r.run(...) spawns the role goroutine
							// directly; the spawn-site rule owns it.
							return
						}
					}
					if !allows.Allowed("ring", n.Pos(), stack) {
						pass.Reportf(n.Pos(), "ring", "%s calls ring-%s method %s without being marked //catcam:ring-%s (SPSC: only the %s side may drive this end of the ring)", framework.MethodName(obj), calleeRole, framework.MethodName(callee), calleeRole, calleeRole)
					}
				}

			case *ast.IncDecStmt:
				if onRingType && recv != nil {
					if f := receiverField(info, n.X, recv); f != nil {
						recordWrite(f, n.Pos(), false)
					}
				}

			case *ast.AssignStmt:
				// r.buf[i] = v — a write into a receiver buffer slice.
				if !onRingType || recv == nil {
					return
				}
				for _, lhs := range n.Lhs {
					if f := receiverField(info, lhs, recv); f != nil {
						recordWrite(f, lhs.Pos(), false)
					}
					idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
					if !ok {
						continue
					}
					sel, ok := ast.Unparen(idx.X).(*ast.SelectorExpr)
					if !ok || !framework.IsIdentFor(info, sel.X, recv) {
						continue
					}
					if _, isSlice := types.Unalias(info.TypeOf(idx.X)).(*types.Slice); isSlice {
						mutatesRing = true
					}
				}

			case *ast.GoStmt:
				// Spawn-site accounting: which roles does this go
				// statement launch?
				for _, role := range spawnRoles(info, n, roles, pass, roleOf) {
					spawns[role] = append(spawns[role], spawn{pos: n.Pos(), stack: append([]ast.Node(nil), stack...)})
				}
			}
		})

		if onRingType && mutatesRing && !callerMarked {
			if !allows.Allowed("ring", fd.Pos(), nil) {
				pass.Reportf(fd.Pos(), "ring", "%s mutates ring state of %s but carries no //catcam:ring-producer or //catcam:ring-consumer mark", framework.MethodName(obj), recvNamed.Obj().Name())
			}
		}
	}

	// Field ownership: no field written by both roles. The report
	// anchors at the producer-side write deterministically.
	for key, pos := range fieldWrites["producer"] {
		if _, ok := fieldWrites["consumer"][key]; !ok {
			continue
		}
		if atomicFields[key] {
			pass.Reportf(pos, "ring", "atomic cursor %s is stored by both producer- and consumer-marked methods: each SPSC cursor is owned by exactly one side", key)
		} else {
			pass.Reportf(pos, "ring", "field %s is written by both producer- and consumer-marked methods: each side-local ring field is owned by exactly one side", key)
		}
	}

	// One spawn site per role per package.
	for _, role := range [...]string{"producer", "consumer"} {
		sites := spawns[role]
		if len(sites) <= 1 {
			continue
		}
		first := pass.Fset.Position(sites[0].pos)
		for _, s := range sites[1:] {
			if allows.Allowed("ring", s.pos, s.stack) {
				continue
			}
			pass.Reportf(s.pos, "ring", "second ring-%s goroutine spawn site in this package (first at %s:%d): SPSC allows a single %s goroutine per ring end", role, first.Filename, first.Line, role)
		}
	}
	return nil
}

// inSpawnedClosure reports whether the innermost function literal
// enclosing the node is directly launched by a go statement.
func inSpawnedClosure(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		lit, ok := stack[i].(*ast.FuncLit)
		if !ok {
			continue
		}
		if i >= 2 {
			if call, ok := stack[i-1].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == ast.Expr(lit) {
				if _, ok := stack[i-2].(*ast.GoStmt); ok {
					return true
				}
			}
		}
		return false
	}
	return false
}

// spawnRoles returns the set of roles a go statement launches: the
// spawned function's own role, or — for a closure — the roles of the
// marked functions it directly calls.
func spawnRoles(info *types.Info, g *ast.GoStmt, local map[*types.Func]string, pass *framework.Pass, roleOf func(*types.Func) (string, bool)) []string {
	set := map[string]bool{}
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := staticCallee(info, call); fn != nil {
				if r, ok := roleOf(fn); ok {
					set[r] = true
				}
			}
			return true
		})
	} else if fn := staticCallee(info, g.Call); fn != nil {
		if r, ok := roleOf(fn); ok {
			set[r] = true
		}
	}
	var out []string
	for _, r := range [...]string{"producer", "consumer"} {
		if set[r] {
			out = append(out, r)
		}
	}
	return out
}

// staticCallee resolves the *types.Func a call statically dispatches
// to, or nil for dynamic calls (function values, interface methods
// resolve to their declared method object, which is still useful).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			fn, _ := info.Uses[id].(*types.Func)
			return fn
		}
	}
	return nil
}

// receiverField returns the receiver field a write target lands in —
// f for r.f, r.f[i], r.f[i:], r.f.g or *r.f — or nil when the target
// is not reached through the receiver's own field.
func receiverField(info *types.Info, e ast.Expr, recv *types.Var) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if framework.IsIdentFor(info, x.X, recv) {
				if _, ok := info.Uses[x.Sel].(*types.Var); ok {
					return x.Sel
				}
				return nil
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func isAtomicField(info *types.Info, sel *ast.Ident) bool {
	v, ok := info.Uses[sel].(*types.Var)
	if !ok {
		return false
	}
	t := types.Unalias(v.Type())
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync/atomic"
}
