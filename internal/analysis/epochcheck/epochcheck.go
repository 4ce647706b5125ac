// Package epochcheck implements the catcam-lint analyzer that proves
// the epoch-publication discipline of the lock-free classify path
// transitively, at the type level. A struct marked //catcam:snapshot
// is epoch-published read state: it becomes reachable to readers only
// through an atomic.Pointer store and must be write-dead from that
// point on. The analyzer enforces four obligations:
//
//   - publication hook: every struct field of type atomic.Pointer[T]
//     (at any nesting under slices/arrays/maps) where T is a named
//     struct of this module must point at a //catcam:snapshot type —
//     epoch publication through an unproven type is an error. This is
//     what makes deleting the //catcam:snapshot mark on core's
//     snapshot type a build failure: Device.snap stops compiling the
//     proof.
//
//   - transitive write-deadness of the type: every in-module named
//     struct reachable from a snapshot type through a pointer (at any
//     depth, including pointers inside value structs, slices, arrays
//     and maps) must itself be marked //catcam:snapshot, so its own
//     package proves it write-dead too. Cross-package composition
//     (core's subtableView holding sram's TernaryView) flows through
//     analyzer facts on the type names. Fields that deliberately
//     carry live, internally-synchronized state (snapshot-riding
//     instruments) opt out with a field-level
//     //catcam:allow epoch "reason".
//
//   - write-deadness of the values: any write through an expression
//     of snapshot type — field assignment, indexed element
//     assignment, ++/--, or being the destination of the copy builtin
//     — is an error unless it happens during construction: through a
//     local assigned from a fresh allocation (&T{...}, new, make),
//     before that local first escapes (is passed to a call, returned,
//     or stored anywhere). The atomic Store that publishes the
//     snapshot is itself such an escape, so the construction window
//     closes at exactly the publication point.
//
//   - freshness of construction stores: values stored into snapshot
//     fields during construction must not alias live mutable memory —
//     each must be pointer-free (a pure value), a fresh allocation,
//     a call result, or a value whose type is itself snapshot-marked
//     (the copy-on-write idiom of sharing views with the previous
//     epoch). Direct aliasing like s.order = d.order is an error:
//     the device would keep mutating memory a published epoch reads.
//
// Escape hatch: //catcam:allow epoch "reason" — on a struct field for
// the type-level rules, on a statement for the value-level rules.
package epochcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"catcam/internal/analysis/framework"
)

// Analyzer is the epochcheck analyzer.
var Analyzer = &framework.Analyzer{
	Name: "epochcheck",
	Doc:  "types marked //catcam:snapshot are transitively write-dead after epoch publication",
	Run:  run,
}

// SnapshotFact marks a named type as proven epoch-published snapshot
// state, exported so snapshot types compose across packages.
type SnapshotFact struct{}

func (*SnapshotFact) AFact() {}

type checker struct {
	pass   *framework.Pass
	info   *types.Info
	allows *framework.Allows

	local  map[*types.TypeName]bool // snapshot-marked types of this package
	exempt map[*types.Var]bool      // fields opted out via //catcam:allow epoch
}

func run(pass *framework.Pass) error {
	c := &checker{
		pass:   pass,
		info:   pass.TypesInfo,
		allows: framework.NewAllows(pass.Fset, pass.Files),
		local:  map[*types.TypeName]bool{},
		exempt: map[*types.Var]bool{},
	}
	c.collect()
	c.checkStructs()
	c.checkBodies()
	return nil
}

// collect finds the //catcam:snapshot type marks and the field-level
// allow exemptions, and exports the type facts.
func (c *checker) collect() {
	for _, file := range c.pass.Files {
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
				marked := framework.HasDirective(ts.Doc, "snapshot") ||
					framework.HasDirective(ts.Comment, "snapshot")
				if !marked && len(gd.Specs) == 1 {
					marked = framework.HasDirective(gd.Doc, "snapshot")
				}
				if !marked {
					continue
				}
				tn, ok := c.info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				if _, ok := tn.Type().Underlying().(*types.Struct); !ok {
					c.pass.Reportf(ts.Pos(), "epoch", "//catcam:snapshot applies to struct types; %s is not a struct", ts.Name.Name)
					continue
				}
				c.local[tn] = true
				c.pass.ExportObjectFact(tn, &SnapshotFact{})
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !fieldAllowsEpoch(field.Doc) && !fieldAllowsEpoch(field.Comment) {
					continue
				}
				for _, name := range field.Names {
					if v, ok := c.info.Defs[name].(*types.Var); ok {
						c.exempt[v] = true
					}
				}
			}
			return true
		})
	}
}

func fieldAllowsEpoch(cg *ast.CommentGroup) bool {
	args, ok := framework.DirectiveArgs(cg, "allow")
	return ok && (args == "epoch" || strings.HasPrefix(args, "epoch "))
}

// isSnapshot reports whether t (after peeling one pointer) is a named
// type marked //catcam:snapshot, locally or via an imported fact.
func (c *checker) isSnapshot(t types.Type) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return c.isSnapshotNamed(named)
}

func (c *checker) isSnapshotNamed(named *types.Named) bool {
	tn := named.Obj()
	if tn.Pkg() == nil {
		return false
	}
	if tn.Pkg() == c.pass.Pkg {
		return c.local[tn]
	}
	return c.pass.ImportObjectFact(tn, new(SnapshotFact))
}

// checkStructs enforces the type-level obligations: the publication
// hook on every atomic.Pointer field, and pointer-reachability for
// snapshot-marked structs.
func (c *checker) checkStructs() {
	for _, file := range c.pass.Files {
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
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				tn, _ := c.info.Defs[ts.Name].(*types.TypeName)
				snapshotType := tn != nil && c.local[tn]
				for _, field := range st.Fields.List {
					exempted := len(field.Names) > 0 && c.exempt[c.fieldVar(field)]
					ft := c.info.TypeOf(field.Type)
					if ft == nil {
						continue
					}
					if !exempted {
						c.checkAtomicPointer(ts.Name.Name, field, ft)
					}
					if snapshotType && !exempted {
						c.checkReachability(ts.Name.Name, field, ft)
					}
				}
			}
		}
	}
}

func (c *checker) fieldVar(field *ast.Field) *types.Var {
	if len(field.Names) == 0 {
		return nil
	}
	v, _ := c.info.Defs[field.Names[0]].(*types.Var)
	return v
}

// checkAtomicPointer reports atomic.Pointer[T] fields (at any nesting
// under slices/arrays/maps) whose T is an unproven in-module struct.
func (c *checker) checkAtomicPointer(structName string, field *ast.Field, t types.Type) {
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		t = types.Unalias(t)
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if elem, ok := atomicPointerElem(t); ok {
				named := framework.AsNamedStruct(elem)
				if named != nil && c.inModule(named) && !c.isSnapshotNamed(named) {
					c.pass.Reportf(field.Pos(), "epoch",
						"%s.%s epoch-publishes %s via atomic.Pointer, but %s is not marked //catcam:snapshot",
						structName, fieldLabel(field), named.Obj().Name(), named.Obj().Name())
				}
				return
			}
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Pointer:
			walk(t.Elem())
		case *types.Struct:
			// Anonymous struct fields: recurse so padded wrappers
			// (struct{ _ pad; p atomic.Pointer[T] }) are still caught.
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		}
	}
	walk(t)
}

// checkReachability reports in-module named structs reachable from a
// snapshot field through a pointer without carrying their own
// //catcam:snapshot proof.
func (c *checker) checkReachability(structName string, field *ast.Field, t types.Type) {
	seen := map[types.Type]bool{}
	reported := map[*types.TypeName]bool{}
	var walk func(t types.Type, viaPointer bool)
	walk = func(t types.Type, viaPointer bool) {
		t = types.Unalias(t)
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Pointer:
			walk(t.Elem(), true)
		case *types.Slice:
			walk(t.Elem(), viaPointer)
		case *types.Array:
			walk(t.Elem(), viaPointer)
		case *types.Map:
			walk(t.Key(), viaPointer)
			walk(t.Elem(), viaPointer)
		case *types.Named:
			if _, ok := atomicPointerElem(t); ok {
				return // the publication-hook rule owns these
			}
			if !c.inModule(t) {
				return // not ours to prove (stdlib sync primitives etc.)
			}
			if c.isSnapshotNamed(t) {
				return // proven in its own right
			}
			if _, isStruct := t.Underlying().(*types.Struct); isStruct && viaPointer {
				if !reported[t.Obj()] {
					reported[t.Obj()] = true
					c.pass.Reportf(field.Pos(), "epoch",
						"snapshot type %s field %s reaches %s through a pointer, but %s is not marked //catcam:snapshot (published state must be transitively write-dead)",
						structName, fieldLabel(field), t.Obj().Name(), t.Obj().Name())
				}
				return
			}
			// Value-embedded or non-struct named type: its pointer
			// fields still ride the snapshot, so keep walking.
			walk(t.Underlying(), viaPointer)
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type(), viaPointer)
			}
		}
	}
	walk(t, false)
}

func (c *checker) inModule(named *types.Named) bool {
	pkg := named.Obj().Pkg()
	return pkg != nil && (pkg == c.pass.Pkg || c.pass.InModule(pkg))
}

// atomicPointerElem returns T when named is sync/atomic.Pointer[T].
func atomicPointerElem(named *types.Named) (types.Type, bool) {
	tn := named.Obj()
	if tn.Pkg() == nil || tn.Pkg().Path() != "sync/atomic" || tn.Name() != "Pointer" {
		return nil, false
	}
	args := named.TypeArgs()
	if args == nil || args.Len() != 1 {
		return nil, false
	}
	return args.At(0), true
}

func fieldLabel(field *ast.Field) string {
	if len(field.Names) == 0 {
		return "(embedded)"
	}
	names := make([]string, len(field.Names))
	for i, n := range field.Names {
		names[i] = n.Name
	}
	return strings.Join(names, ", ")
}

// ---- value-level checks -------------------------------------------------

// freshLocal records one local assigned from a fresh allocation: the
// position of that assignment, and the position of the variable's
// first escape (token.NoPos when it never escapes). Writes through the
// local in the window (assignPos, escapePos) are construction.
type freshLocal struct {
	assignPos token.Pos
	escapePos token.Pos
}

func (c *checker) checkBodies() {
	for _, file := range c.pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fresh := c.analyzeFresh(fd)
			framework.WalkStack(fd.Body, func(n ast.Node, stack []ast.Node) {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if n.Tok == token.DEFINE {
							if _, ok := ast.Unparen(lhs).(*ast.Ident); ok {
								continue // fresh binding, not a write
							}
						}
						var rhs ast.Expr
						if len(n.Rhs) == len(n.Lhs) {
							rhs = n.Rhs[i]
						}
						c.checkWrite(fd, lhs, rhs, stack, fresh, "writes")
					}
				case *ast.IncDecStmt:
					c.checkWrite(fd, n.X, nil, stack, fresh, "writes")
				case *ast.CallExpr:
					if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "copy" && c.isBuiltin(id) && len(n.Args) > 0 {
						c.checkWrite(fd, n.Args[0], nil, stack, fresh, "copies into")
					}
				case *ast.CompositeLit:
					c.checkCompositeLit(fd, n, stack, fresh)
				}
			})
		}
	}
}

func (c *checker) isBuiltin(id *ast.Ident) bool {
	_, ok := c.info.Uses[id].(*types.Builtin)
	return ok
}

// checkWrite handles one potential write target: if the (peeled)
// selector's base is snapshot-typed, the write must sit inside a
// construction window, and its stored value must be fresh.
func (c *checker) checkWrite(fd *ast.FuncDecl, lhs, rhs ast.Expr, stack []ast.Node, fresh map[*types.Var]*freshLocal, verb string) {
	sel := peelToSelector(lhs)
	if sel == nil {
		return
	}
	base := c.info.TypeOf(sel.X)
	if !c.isSnapshot(base) {
		return
	}
	if v, ok := c.info.Uses[sel.Sel].(*types.Var); ok && c.exempt[v] {
		return
	}
	typeName := snapshotTypeName(base)
	if fl := c.constructionWindow(sel, fresh); fl != nil {
		// Construction write: legal, but the stored value must not
		// alias live memory.
		if rhs != nil && !c.freshValue(rhs, fresh) && !c.allows.Allowed("epoch", rhs.Pos(), stack) {
			c.pass.Reportf(rhs.Pos(), "epoch",
				"%s stores a value aliasing live memory into snapshot field %s.%s: store a fresh allocation, a pure value, or a snapshot-typed value",
				fd.Name.Name, typeName, sel.Sel.Name)
		}
		return
	}
	if c.allows.Allowed("epoch", sel.Pos(), stack) {
		return
	}
	c.pass.Reportf(sel.Pos(), "epoch",
		"%s %s field %s of epoch-published type %s: //catcam:snapshot state is write-dead after publication (only construction writes through a fresh, unescaped local are allowed)",
		fd.Name.Name, verb, sel.Sel.Name, typeName)
}

// constructionWindow returns the fresh-local record when the write
// target is rooted in a fresh local and positioned inside its
// construction window.
func (c *checker) constructionWindow(sel *ast.SelectorExpr, fresh map[*types.Var]*freshLocal) *freshLocal {
	root := framework.RootIdent(sel)
	if root == nil {
		return nil
	}
	v := c.identVar(root)
	if v == nil {
		return nil
	}
	fl := fresh[v]
	if fl == nil {
		return nil
	}
	if sel.Pos() < fl.assignPos {
		return nil
	}
	if fl.escapePos != token.NoPos && sel.Pos() >= fl.escapePos {
		return nil
	}
	return fl
}

// checkCompositeLit enforces freshness on snapshot composite literal
// elements — the first half of the construction the fresh-local rule
// covers for post-literal assignments.
func (c *checker) checkCompositeLit(fd *ast.FuncDecl, lit *ast.CompositeLit, stack []ast.Node, fresh map[*types.Var]*freshLocal) {
	t := c.info.TypeOf(lit)
	if !c.isSnapshot(t) {
		return
	}
	st, ok := types.Unalias(deref(t)).(*types.Named)
	if !ok {
		return
	}
	under, ok := st.Underlying().(*types.Struct)
	if !ok {
		return
	}
	typeName := st.Obj().Name()
	for i, elt := range lit.Elts {
		var fieldName string
		var fieldObj *types.Var
		value := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			value = kv.Value
			if key, ok := kv.Key.(*ast.Ident); ok {
				fieldName = key.Name
				fieldObj, _ = c.info.Uses[key].(*types.Var)
			}
		} else if i < under.NumFields() {
			fieldObj = under.Field(i)
			fieldName = fieldObj.Name()
		}
		if fieldObj != nil && c.exempt[fieldObj] {
			continue
		}
		if c.freshValue(value, fresh) {
			continue
		}
		if c.allows.Allowed("epoch", value.Pos(), stack) {
			continue
		}
		c.pass.Reportf(value.Pos(), "epoch",
			"%s initializes snapshot field %s.%s with a value aliasing live memory: store a fresh allocation, a pure value, or a snapshot-typed value",
			fd.Name.Name, typeName, fieldName)
	}
}

// freshValue reports whether storing e into a snapshot field is safe:
// e is pointer-free (a pure value the store copies), a fresh
// allocation, a call result (the callee's own analysis governs what it
// hands out), a fresh local, or a value of snapshot-marked type (the
// COW idiom of sharing immutable views with the previous epoch).
func (c *checker) freshValue(e ast.Expr, fresh map[*types.Var]*freshLocal) bool {
	e = ast.Unparen(e)
	if t := c.info.TypeOf(e); t != nil && framework.TypeNoPointers(t) {
		return true
	}
	if c.isSnapshotValueType(c.info.TypeOf(e)) {
		return true
	}
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
			return true
		}
		return c.freshValue(e.X, fresh)
	case *ast.Ident:
		if e.Name == "nil" {
			return true
		}
		if v := c.identVar(e); v != nil {
			if fl := fresh[v]; fl != nil && e.Pos() >= fl.assignPos {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		if tv, ok := c.info.Types[e.Fun]; ok && tv.IsType() {
			// Conversion: fresh iff the converted value is.
			return len(e.Args) == 1 && c.freshValue(e.Args[0], fresh)
		}
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && c.isBuiltin(id) {
			switch id.Name {
			case "make", "new", "min", "max", "len", "cap":
				return true
			case "append":
				return len(e.Args) > 0 && c.freshValue(e.Args[0], fresh)
			default:
				return false
			}
		}
		// Ordinary call: assumed to return fresh or snapshot-typed
		// memory — the callee's own package analysis enforces that.
		return true
	}
	return false
}

// isSnapshotValueType peels slices/arrays/maps/pointers and reports
// whether the element type is snapshot-marked — sharing a slice of
// snapshot pointers from the previous epoch is the COW idiom.
func (c *checker) isSnapshotValueType(t types.Type) bool {
	for t != nil {
		t = types.Unalias(t)
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Slice:
			t = tt.Elem()
		case *types.Array:
			t = tt.Elem()
		case *types.Map:
			t = tt.Elem()
		case *types.Named:
			return c.isSnapshotNamed(tt)
		default:
			return false
		}
	}
	return false
}

// analyzeFresh finds the function's fresh locals — those assigned only
// from fresh allocations — and their first escape position.
func (c *checker) analyzeFresh(fd *ast.FuncDecl) map[*types.Var]*freshLocal {
	fresh := map[*types.Var]*freshLocal{}
	poisoned := map[*types.Var]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			v := c.identVar(id)
			if v == nil {
				continue
			}
			if c.freshAlloc(as.Rhs[i]) {
				if !poisoned[v] && fresh[v] == nil {
					fresh[v] = &freshLocal{assignPos: id.Pos(), escapePos: token.NoPos}
				}
			} else {
				poisoned[v] = true
				delete(fresh, v)
			}
		}
		return true
	})
	if len(fresh) == 0 {
		return fresh
	}
	// Escapes: any bare value use of the local that is not a field
	// access or its own (re)assignment hands the pointer to code that
	// may retain it — the atomic Store publishing a snapshot included.
	framework.WalkStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		v := c.identVar(id)
		if v == nil {
			return
		}
		fl := fresh[v]
		if fl == nil {
			return
		}
		parent := framework.ParentOf(stack)
		switch p := parent.(type) {
		case *ast.SelectorExpr:
			if p.X == id {
				return // field access through the local, not a value use
			}
		case *ast.IndexExpr:
			if p.X == id {
				return // element access
			}
		case *ast.SliceExpr:
			if p.X == id {
				return
			}
		case *ast.StarExpr:
			return
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == ast.Expr(id) {
					return // its own (re)assignment, handled above
				}
			}
		case *ast.CallExpr:
			if bid, ok := ast.Unparen(p.Fun).(*ast.Ident); ok && c.isBuiltin(bid) {
				switch bid.Name {
				case "len", "cap", "copy", "delete":
					return // non-retaining builtins
				}
			}
		}
		if fl.escapePos == token.NoPos || id.Pos() < fl.escapePos {
			fl.escapePos = id.Pos()
		}
	})
	return fresh
}

// freshAlloc reports whether e denotes freshly allocated memory.
func (c *checker) freshAlloc(e ast.Expr) bool {
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
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && c.isBuiltin(id) {
			switch id.Name {
			case "make", "new":
				return true
			case "append":
				return len(e.Args) > 0 && c.freshAllocOrNil(e.Args[0])
			}
		}
	}
	return false
}

func (c *checker) freshAllocOrNil(e ast.Expr) bool {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok && id.Name == "nil" {
		return true
	}
	if call, ok := e.(*ast.CallExpr); ok {
		if tv, ok := c.info.Types[call.Fun]; ok && tv.IsType() {
			return len(call.Args) == 1 && c.freshAllocOrNil(call.Args[0])
		}
	}
	return c.freshAlloc(e)
}

func (c *checker) identVar(id *ast.Ident) *types.Var {
	if v, ok := c.info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := c.info.Uses[id].(*types.Var)
	return v
}

// peelToSelector strips index, slice, star and paren layers off a
// write target and returns the selector being written through, or nil.
func peelToSelector(e ast.Expr) *ast.SelectorExpr {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.SelectorExpr:
			return t
		default:
			return nil
		}
	}
}

func snapshotTypeName(t types.Type) string {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

func deref(t types.Type) types.Type {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
