// Package cyclecheck implements the catcam-lint analyzer that keeps
// the simulator's modeled cycle counts honest.
//
// The CATCAM model derives its headline numbers (1-cycle search,
// 2-cycle dual-voltage column write, O(rows) row-wise ablation) from
// the Stats.Cycles accounting inside internal/sram. If a code path
// mutates array state without routing through the accounting, the
// modeled cycle counts silently drift from the paper's cost classes.
//
// Two directives define the contract:
//
//   - //catcam:cycle-state on a struct field marks storage whose
//     mutation represents a modeled hardware access (sram rows,
//     ternary entry words, validity mask, bit-sliced planes);
//   - //catcam:mutator on a method marks it as mutating its receiver
//     (bitvec.Vector.Set, ternary.Word.SetBit, ...). Mutator marks
//     are exported as facts, so a method in sram calling
//     valid.Set(r) on a cycle-state field is recognized even though
//     Set lives in another package.
//
// A method that writes a cycle-state field — directly, through a
// local variable that aliases it (a chunk pointer, a subslice, a range
// variable over a slab of chunks), or by calling a mutator method on
// an expression rooted in one — must also contain
// a cycle-accounting statement: an increment/assignment to a
// receiver-rooted field whose name ends in "Cycles" (in practice
// <recv>.stats.Cycles). Methods that account elsewhere by design
// (sliceEntry, test-only fault hooks) carry
// //catcam:allow cycles "reason".
package cyclecheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"catcam/internal/analysis/framework"
)

// MutatorFact marks a method as mutating its receiver's storage. It
// is exported for //catcam:mutator-annotated methods so downstream
// packages recognize mutations through their cycle-state fields.
type MutatorFact struct{}

// AFact implements framework.Fact.
func (*MutatorFact) AFact() {}

// Analyzer is the cyclecheck analyzer.
var Analyzer = &framework.Analyzer{
	Name: "cyclecheck",
	Doc:  "mutations of //catcam:cycle-state storage must be accompanied by modeled-cycle accounting",
	Run:  run,
}

func run(pass *framework.Pass) error {
	info := pass.TypesInfo
	allows := framework.NewAllows(pass.Fset, pass.Files)

	// Cycle-state fields declared in this package.
	cycleFields := map[*types.Var]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				if !fieldHasDirective(f, "cycle-state") {
					continue
				}
				for _, name := range f.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						cycleFields[v] = true
					}
				}
			}
			return true
		})
	}

	// Mutator methods declared in this package; exported as facts.
	localMutators := map[*types.Func]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !framework.HasDirective(fd.Doc, "mutator") {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			localMutators[fn] = true
			pass.ExportObjectFact(fn, &MutatorFact{})
		}
	}
	isMutator := func(fn *types.Func) bool {
		if localMutators[fn] {
			return true
		}
		return pass.ImportObjectFact(fn, &MutatorFact{})
	}

	type site struct {
		pos   token.Pos
		field *types.Var
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			recv := framework.ReceiverVar(info, fd)
			if recv == nil {
				continue // plain functions and constructors build fresh state
			}

			var sites []site
			accounted := false

			// aliases maps a local variable holding a reference into
			// cycle-state storage (a slice, pointer or map taken from a
			// receiver-rooted cycle-state expression, such as a chunk of
			// a slab or a subslice of it) to the field it aliases, so a
			// write through the local is a write to the field.
			aliases := map[*types.Var]*types.Var{}

			// cycleRoot resolves an expression like t.planeValue[i],
			// t.valid or chunk[j] to the cycle-state field it passes
			// through, when the chain is rooted at the receiver or at a
			// local alias of its cycle-state storage.
			cycleRoot := func(e ast.Expr) *types.Var {
				var found *types.Var
				for {
					switch x := ast.Unparen(e).(type) {
					case *ast.IndexExpr:
						e = x.X
					case *ast.SliceExpr:
						e = x.X
					case *ast.StarExpr:
						e = x.X
					case *ast.SelectorExpr:
						if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() && cycleFields[v] {
							found = v
						}
						e = x.X
					case *ast.Ident:
						if info.Uses[x] == recv {
							return found
						}
						if v, ok := info.Uses[x].(*types.Var); ok && aliases[v] != nil {
							if found != nil {
								return found
							}
							return aliases[v]
						}
						return nil
					default:
						return nil
					}
				}
			}

			// alias records lhs as an alias of field f when lhs is a
			// local variable of a reference type.
			alias := func(lhs ast.Expr, f *types.Var) bool {
				id, ok := lhs.(*ast.Ident)
				if !ok || f == nil {
					return false
				}
				v, ok := info.ObjectOf(id).(*types.Var)
				if !ok || v.IsField() || v.Parent() == pass.Pkg.Scope() || aliases[v] != nil || !isReference(v.Type()) {
					return false
				}
				aliases[v] = f
				return true
			}
			// An alias may be made from another, so collect to a fixpoint.
			for changed := true; changed; {
				changed = false
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						if len(n.Lhs) == len(n.Rhs) {
							for i, lhs := range n.Lhs {
								changed = alias(lhs, cycleRoot(n.Rhs[i])) || changed
							}
						}
					case *ast.ValueSpec:
						if len(n.Names) == len(n.Values) {
							for i, name := range n.Names {
								changed = alias(name, cycleRoot(n.Values[i])) || changed
							}
						}
					case *ast.RangeStmt:
						if n.Value != nil {
							changed = alias(n.Value, cycleRoot(n.X)) || changed
						}
					}
					return true
				})
			}

			// isAccounting reports a write to a receiver-rooted field
			// whose name ends in Cycles (e.g. t.stats.Cycles++).
			isAccounting := func(e ast.Expr) bool {
				sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
				if !ok || !strings.HasSuffix(sel.Sel.Name, "Cycles") {
					return false
				}
				for e := ast.Expr(sel); ; {
					switch x := ast.Unparen(e).(type) {
					case *ast.SelectorExpr:
						e = x.X
					case *ast.IndexExpr:
						e = x.X
					case *ast.Ident:
						return info.Uses[x] == recv
					default:
						return false
					}
				}
			}

			framework.WalkStack(fd.Body, func(n ast.Node, stack []ast.Node) {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if isAccounting(lhs) {
							accounted = true
						} else if v := cycleRoot(lhs); v != nil && !allows.Allowed("cycles", lhs.Pos(), stack) {
							sites = append(sites, site{lhs.Pos(), v})
						}
					}
				case *ast.IncDecStmt:
					if isAccounting(n.X) {
						accounted = true
					} else if v := cycleRoot(n.X); v != nil && !allows.Allowed("cycles", n.X.Pos(), stack) {
						sites = append(sites, site{n.X.Pos(), v})
					}
				case *ast.CallExpr:
					sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
					if !ok {
						return
					}
					fn, ok := info.Uses[sel.Sel].(*types.Func)
					if !ok || !isMutator(fn) {
						return
					}
					if v := cycleRoot(sel.X); v != nil && !allows.Allowed("cycles", n.Pos(), stack) {
						sites = append(sites, site{n.Pos(), v})
					}
				}
			})

			if accounted {
				continue
			}
			for _, s := range sites {
				pass.Reportf(s.pos, "cycles",
					"%s mutates cycle-state field %s without accounting modeled cycles (no update of a %s-rooted ...Cycles field in this method)",
					framework.MethodName(info.Defs[fd.Name].(*types.Func)), s.field.Name(), recv.Name())
			}
		}
	}
	return nil
}

// isReference reports whether a value of type t shares the storage it
// was taken from: a pointer, slice or map.
func isReference(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

func fieldHasDirective(f *ast.Field, verb string) bool {
	return framework.HasDirective(f.Doc, verb) || framework.HasDirective(f.Comment, verb)
}
