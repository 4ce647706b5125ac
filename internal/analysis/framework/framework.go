// Package framework is a small, dependency-free re-implementation of
// the go/analysis runner surface that catcam-lint is built on. The
// module takes no dependencies, so golang.org/x/tools is not
// available; this package provides the subset catcam's analyzers
// need — single-pass analyzers over a type-checked package,
// cross-package object facts, and one driver (Run, behind the Main
// command line) that loads the module from source through
// `go list -export` — using only the standard library.
//
// The analyzers communicate with the source tree through `//catcam:`
// comment directives (written without a space, like //go: directives,
// so gofmt preserves them). The verbs, with the argument each takes
// and what it declares, are listed once, in Verbs; a //catcam: comment
// with any other verb is itself a finding (the directives analyzer).
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strconv"
	"strings"
)

// Fact is a piece of analyzer-produced information attached to a
// package-level function or method. It crosses package boundaries
// gob-encoded in memory, so each importer decodes its own copy.
type Fact interface{ AFact() }

// Analyzer describes one static check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Category string // the //catcam:allow category that suppresses it
	Message  string
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Module    string // module path of the package under analysis ("" if unknown)

	diags *[]Diagnostic
	facts map[string]factStore // by package path: Pkg's (being accumulated) and its analyzed deps'
}

// Reportf records a diagnostic.
func (p *Pass) Reportf(pos token.Pos, category, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Category: category,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InModule reports whether pkg belongs to the module under analysis.
func (p *Pass) InModule(pkg *types.Package) bool {
	if pkg == nil || p.Module == "" {
		return false
	}
	path := pkg.Path()
	return path == p.Module || strings.HasPrefix(path, p.Module+"/")
}

// Verb is one //catcam: directive verb.
type Verb struct {
	Name string
	Arg  string // the argument it takes, as its usage shows it ("" for none)
	Doc  string // what it declares, and the analyzer that reads it
}

// Verbs is the one table of directive verbs: parseDirective accepts
// exactly these, and Usage lists them.
var Verbs = []Verb{
	{"hotpath", "", "function must not allocate, transitively (hotpath)"},
	{"guarded-by", "<mu>", "struct field is protected by mutex field <mu> (lockcheck)"},
	{"write-guarded-by", "<mu>", "struct field is written only under <mu>; reads are free (lockcheck)"},
	{"cycle-state", "", "struct field is modeled SRAM/priority state (cyclecheck)"},
	{"mutator", "", "method mutates its receiver (a cyclecheck fact)"},
	{"snapshot", "", "struct type is epoch-published read state: write-dead after publication (epochcheck)"},
	{"scratch", "", "struct type is pooled per-goroutine scratch: must never escape its owner (poolcheck)"},
	{"ring-producer", "", "function or method is the producer side of an SPSC ring (ringcheck)"},
	{"ring-consumer", "", "function or method is the consumer side of an SPSC ring (ringcheck)"},
	{"allow", `<category> "reason"`, "suppresses findings of the category for the statement it is attached to"},
}

// Usage renders Verbs as one line, each verb with its argument:
// catcam:{hotpath|guarded-by <mu>|...}.
func Usage() string {
	forms := make([]string, len(Verbs))
	for i, v := range Verbs {
		forms[i] = strings.TrimSpace(v.Name + " " + v.Arg)
	}
	return "catcam:{" + strings.Join(forms, "|") + "}"
}

// Directive is one parsed //catcam: comment.
type Directive struct {
	Pos      token.Pos
	Verb     string // the Name of one of Verbs
	Args     string // raw text after the verb
	Category string // for allow: the suppressed category
	Reason   string // for allow: the quoted justification
}

// parseDirective parses a single comment line. ok is false when the
// comment is not a //catcam: directive at all; malformed directives
// return ok=true with Verb=="" so callers can report them.
func parseDirective(c *ast.Comment) (d Directive, ok bool) {
	text, found := strings.CutPrefix(c.Text, "//catcam:")
	if !found {
		return Directive{}, false
	}
	d.Pos = c.Pos()
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return d, true
	}
	verb, rest := fields[0], strings.TrimSpace(strings.TrimPrefix(text, fields[0]))
	switch {
	case !slices.ContainsFunc(Verbs, func(v Verb) bool { return v.Name == verb }):
		// malformed: unknown verb
	case verb != "allow":
		d.Verb, d.Args = verb, rest
	default:
		parts := strings.Fields(rest)
		if len(parts) == 0 {
			return d, true // malformed: no category
		}
		cat := parts[0]
		reasonRaw := strings.TrimSpace(strings.TrimPrefix(rest, cat))
		reason, err := strconv.Unquote(reasonRaw)
		if err != nil || reason == "" {
			return d, true // malformed: missing/unquoted reason
		}
		d.Verb, d.Category, d.Reason, d.Args = "allow", cat, reason, rest
	}
	return d, true
}

// Directives returns every well-formed //catcam: directive in the files.
func Directives(files []*ast.File) []Directive {
	var out []Directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if d, ok := parseDirective(c); ok && d.Verb != "" {
					out = append(out, d)
				}
			}
		}
	}
	return out
}

// MalformedDirectives returns every //catcam: comment that failed to parse.
func MalformedDirectives(files []*ast.File) []*ast.Comment {
	var out []*ast.Comment
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if d, ok := parseDirective(c); ok && d.Verb == "" {
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// HasDirective reports whether the comment group contains the verb.
func HasDirective(cg *ast.CommentGroup, verb string) bool {
	_, ok := DirectiveArgs(cg, verb)
	return ok
}

// DirectiveArgs returns the argument text of the first directive with
// the given verb in the comment group.
func DirectiveArgs(cg *ast.CommentGroup, verb string) (string, bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		if d, ok := parseDirective(c); ok && d.Verb == verb {
			return d.Args, true
		}
	}
	return "", false
}

// Allows indexes //catcam:allow directives for suppression queries.
type Allows struct {
	fset *token.FileSet
	// filename -> line -> category -> reason
	m map[string]map[int]map[string]string
}

// NewAllows scans the files for allow directives.
func NewAllows(fset *token.FileSet, files []*ast.File) *Allows {
	a := &Allows{fset: fset, m: map[string]map[int]map[string]string{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok || d.Verb != "allow" {
					continue
				}
				p := fset.Position(c.Pos())
				byLine := a.m[p.Filename]
				if byLine == nil {
					byLine = map[int]map[string]string{}
					a.m[p.Filename] = byLine
				}
				cats := byLine[p.Line]
				if cats == nil {
					cats = map[string]string{}
					byLine[p.Line] = cats
				}
				cats[d.Category] = d.Reason
			}
		}
	}
	return a
}

func (a *Allows) at(file string, line int, cat string) bool {
	byLine := a.m[file]
	if byLine == nil {
		return false
	}
	cats := byLine[line]
	if cats == nil {
		return false
	}
	_, ok := cats[cat]
	return ok
}

// Allowed reports whether a finding of the given category at pos is
// suppressed. An allow directive applies to (a) the line it sits on,
// (b) the statement starting on the directive's line or the line just
// below it (comment-above style), for findings anywhere inside that
// statement, and (c) the whole function when placed in the function's
// doc comment. stack is the path of enclosing AST nodes, outermost
// first; it may be nil, in which case only the line rule applies.
func (a *Allows) Allowed(cat string, pos token.Pos, stack []ast.Node) bool {
	p := a.fset.Position(pos)
	if a.at(p.Filename, p.Line, cat) {
		return true
	}
	for _, n := range stack {
		switch n := n.(type) {
		case ast.Stmt:
			sl := a.fset.Position(n.Pos()).Line
			if a.at(p.Filename, sl, cat) || a.at(p.Filename, sl-1, cat) {
				return true
			}
		case *ast.FuncDecl:
			if n.Doc != nil {
				for _, c := range n.Doc.List {
					if d, ok := parseDirective(c); ok && d.Verb == "allow" && d.Category == cat {
						return true
					}
				}
			}
		}
	}
	return false
}

// WalkStack traverses root in depth-first order, calling visit with
// each node and the stack of its ancestors (outermost first, not
// including the node itself).
func WalkStack(root ast.Node, visit func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}

// ReceiverNamed returns the named base type of a method's receiver,
// or nil for plain functions and methods on unnamed types.
func ReceiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// MethodName renders a function for messages: "(*T).m" for a method
// of T, the bare name for a plain function.
func MethodName(fn *types.Func) string {
	if named := ReceiverNamed(fn); named != nil {
		return "(*" + named.Obj().Name() + ")." + fn.Name()
	}
	return fn.Name()
}

// ReceiverVar returns the named receiver variable of a method
// declaration, or nil for plain functions and unnamed receivers.
func ReceiverVar(info *types.Info, fd *ast.FuncDecl) *types.Var {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	v, _ := info.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	return v
}

// IsIdentFor reports whether e is (a parenthesized) use of v.
func IsIdentFor(info *types.Info, e ast.Expr, v *types.Var) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id != nil && info.Uses[id] == v
}

// ParentOf returns the innermost node of a WalkStack stack, or nil.
func ParentOf(stack []ast.Node) ast.Node {
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}

// RootIdent walks selector/index/slice/star/paren chains down to the
// identifier the expression is rooted in, or nil.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.Ident:
			return t
		default:
			return nil
		}
	}
}

// AsNamedStruct returns t (after peeling one pointer) as a named
// struct type, or nil.
func AsNamedStruct(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// TypeNoPointers reports whether values of t carry no references at
// all — storing such a value copies it outright, so it can never alias
// other memory. Strings count: their bytes are immutable.
func TypeNoPointers(t types.Type) bool {
	seen := map[types.Type]bool{}
	var pure func(t types.Type) bool
	pure = func(t types.Type) bool {
		t = types.Unalias(t)
		if seen[t] {
			return true
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Basic:
			return t.Kind() != types.UnsafePointer
		case *types.Named:
			return pure(t.Underlying())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if !pure(t.Field(i).Type()) {
					return false
				}
			}
			return true
		case *types.Array:
			return pure(t.Elem())
		}
		return false
	}
	return pure(t)
}
