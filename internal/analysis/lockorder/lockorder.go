// Package lockorder implements the catcam-lint analyzer that proves
// the module-wide mutex acquisition order is acyclic. The locks under
// proof are the mutex fields named by //catcam:guarded-by and
// //catcam:write-guarded-by annotations (core.Device.mu,
// cluster.Cluster.mu, cluster.Cluster.routeMu, ...);
// lockcheck proves each is held where required, lockorder proves that
// holding several at once cannot deadlock.
//
// The analysis is type-based: every acquisition of a tracked mutex
// field maps to the lock identity "pkgpath.Struct.field", regardless
// of which instance is locked. Per function, a source-ordered replay
// of Lock/RLock/Unlock/RUnlock events (defer-unlock releases at
// function exit) tracks the held set; acquiring B with A held records
// the edge A→B. Calls compose transitively: each function exports the
// set of locks it may acquire (directly or via callees) as a fact, so
// calling a core.Device method while holding cluster.Cluster.mu
// records cluster.Cluster.mu→core.Device.mu without seeing core's
// source. Each package exports the union of its own edges and its
// in-module imports' edges, so the full acquisition graph accumulates
// up the import DAG; a local edge that closes a cycle in that union
// is reported at the acquisition site.
//
// Self-edges (re-acquiring the lock you hold) are lockcheck's
// self-deadlock rule, not lockorder's. Escape hatch:
// //catcam:allow lockorder "reason" drops the edge at that site.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"catcam/internal/analysis/framework"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &framework.Analyzer{
	Name: "lockorder",
	Doc:  "the module-wide acquisition order of //catcam:guarded-by mutexes must stay acyclic",
	Run:  run,
}

// MutexesFact lists the tracked mutex fields of an annotated struct,
// so importing packages recognize acquisitions of exported mutexes.
type MutexesFact struct{ Fields []string }

func (*MutexesFact) AFact() {}

// AcquiresFact is the set of lock IDs a function may acquire,
// transitively through its callees.
type AcquiresFact struct{ Locks []string }

func (*AcquiresFact) AFact() {}

// Edge is one observed acquisition order: To was acquired while From
// was held.
type Edge struct{ From, To string }

// EdgesFact is the package-level union of acquisition edges — the
// package's own plus everything imported from in-module dependencies.
type EdgesFact struct{ Edges []Edge }

func (*EdgesFact) AFact() {}

const (
	evAcquire = iota
	evRelease
	evCall
)

type event struct {
	kind   int
	pos    token.Pos
	lock   string      // evAcquire/evRelease
	callee *types.Func // evCall
	stack  []ast.Node
}

type fnInfo struct {
	obj    *types.Func
	name   string
	events []event
}

type edgeSite struct {
	edge  Edge
	pos   token.Pos
	fn    string
	stack []ast.Node
}

type checker struct {
	pass    *framework.Pass
	info    *types.Info
	allows  *framework.Allows
	tracked map[*types.TypeName]map[string]bool
}

func run(pass *framework.Pass) error {
	c := &checker{
		pass:    pass,
		info:    pass.TypesInfo,
		allows:  framework.NewAllows(pass.Fset, pass.Files),
		tracked: map[*types.TypeName]map[string]bool{},
	}

	// Tracked locks: the mutex fields that guarded-by annotations in
	// this package point at. Malformed annotations are lockcheck's to
	// report; here they are silently skipped.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			tn, ok := c.info.Defs[ts.Name].(*types.TypeName)
			if !ok {
				return false
			}
			for _, field := range st.Fields.List {
				for _, verb := range [...]string{"guarded-by", "write-guarded-by"} {
					muName, ok := framework.DirectiveArgs(field.Doc, verb)
					if !ok {
						muName, ok = framework.DirectiveArgs(field.Comment, verb)
					}
					if !ok || muName == "" {
						continue
					}
					if c.tracked[tn] == nil {
						c.tracked[tn] = map[string]bool{}
					}
					c.tracked[tn][muName] = true
				}
			}
			return false
		})
	}
	for tn, fields := range c.tracked {
		fact := &MutexesFact{}
		for f := range fields {
			fact.Fields = append(fact.Fields, f)
		}
		sort.Strings(fact.Fields)
		pass.ExportObjectFact(tn, fact)
	}

	// Per-function event streams.
	var fns []*fnInfo
	byObj := map[*types.Func]*fnInfo{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := c.info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &fnInfo{obj: obj, name: funcDisplay(obj)}
			c.collect(fd, fi)
			sort.Slice(fi.events, func(i, j int) bool { return fi.events[i].pos < fi.events[j].pos })
			fns = append(fns, fi)
			byObj[obj] = fi
		}
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].obj.Pos() < fns[j].obj.Pos() })

	// Transitive acquires fixpoint. Imported callees contribute their
	// exported AcquiresFact; local callees iterate to convergence.
	acquires := map[*types.Func]map[string]bool{}
	for _, fi := range fns {
		set := map[string]bool{}
		for _, e := range fi.events {
			if e.kind == evAcquire {
				set[e.lock] = true
			}
		}
		acquires[fi.obj] = set
	}
	imported := map[*types.Func][]string{}
	calleeLocks := func(fn *types.Func) []string {
		if local, ok := byObj[fn]; ok {
			var out []string
			for l := range acquires[local.obj] {
				out = append(out, l)
			}
			sort.Strings(out)
			return out
		}
		if locks, ok := imported[fn]; ok {
			return locks
		}
		var af AcquiresFact
		if c.pass.ImportObjectFact(fn, &af) {
			imported[fn] = af.Locks
		} else {
			imported[fn] = nil
		}
		return imported[fn]
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			for _, e := range fi.events {
				if e.kind != evCall {
					continue
				}
				for _, l := range calleeLocks(e.callee) {
					if !acquires[fi.obj][l] {
						acquires[fi.obj][l] = true
						changed = true
					}
				}
			}
		}
	}
	for _, fi := range fns {
		if len(acquires[fi.obj]) == 0 {
			continue
		}
		fact := &AcquiresFact{}
		for l := range acquires[fi.obj] {
			fact.Locks = append(fact.Locks, l)
		}
		sort.Strings(fact.Locks)
		pass.ExportObjectFact(fi.obj, fact)
	}

	// Edge replay: held-set walk per function. Allowed sites drop the
	// edge entirely — the annotation vouches for that ordering.
	var sites []edgeSite
	addSite := func(fi *fnInfo, from, to string, pos token.Pos, stack []ast.Node) {
		if from == to {
			return // self-deadlock is lockcheck's rule
		}
		if c.allows.Allowed("lockorder", pos, stack) {
			return
		}
		sites = append(sites, edgeSite{edge: Edge{From: from, To: to}, pos: pos, fn: fi.name, stack: stack})
	}
	for _, fi := range fns {
		held := map[string]bool{}
		for _, e := range fi.events {
			switch e.kind {
			case evAcquire:
				for h := range held {
					addSite(fi, h, e.lock, e.pos, e.stack)
				}
				held[e.lock] = true
			case evRelease:
				delete(held, e.lock)
			case evCall:
				if len(held) == 0 {
					continue
				}
				for _, l := range calleeLocks(e.callee) {
					for h := range held {
						addSite(fi, h, l, e.pos, e.stack)
					}
				}
			}
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })

	// Union graph: local edges plus the accumulated edges of every
	// in-module import; export the union for our own importers.
	edgeSet := map[Edge]bool{}
	for _, s := range sites {
		edgeSet[s.edge] = true
	}
	for _, imp := range pass.Pkg.Imports() {
		if !pass.InModule(imp) {
			continue
		}
		var ef EdgesFact
		if pass.ImportPackageFact(imp, &ef) {
			for _, e := range ef.Edges {
				edgeSet[e] = true
			}
		}
	}
	union := &EdgesFact{}
	for e := range edgeSet {
		union.Edges = append(union.Edges, e)
	}
	sort.Slice(union.Edges, func(i, j int) bool {
		if union.Edges[i].From != union.Edges[j].From {
			return union.Edges[i].From < union.Edges[j].From
		}
		return union.Edges[i].To < union.Edges[j].To
	})
	pass.ExportPackageFact(union)

	adj := map[string][]string{}
	for _, e := range union.Edges {
		adj[e.From] = append(adj[e.From], e.To)
	}

	// A local edge A→B closes a cycle iff A is reachable from B in the
	// union graph. Report once per distinct edge, at its first site.
	reported := map[Edge]bool{}
	for _, s := range sites {
		if reported[s.edge] {
			continue
		}
		path := bfsPath(adj, s.edge.To, s.edge.From)
		if path == nil {
			continue
		}
		reported[s.edge] = true
		chain := make([]string, 0, len(path)+1)
		chain = append(chain, shortLock(s.edge.From))
		for _, n := range path {
			chain = append(chain, shortLock(n))
		}
		pass.Reportf(s.pos, "lockorder",
			"%s acquires %s while holding %s, closing a lock-order cycle: %s",
			s.fn, shortLock(s.edge.To), shortLock(s.edge.From), strings.Join(chain, " -> "))
	}
	return nil
}

// collect walks one function body for lock events and in-module calls.
// Closure bodies count as part of the enclosing function.
func (c *checker) collect(fd *ast.FuncDecl, fi *fnInfo) {
	framework.WalkStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				c.addCall(fi, call, id, stack)
			}
			return
		}
		switch op := sel.Sel.Name; op {
		case "Lock", "RLock", "Unlock", "RUnlock":
			if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
				if id := c.lockAt(inner); id != "" {
					release := op == "Unlock" || op == "RUnlock"
					if release {
						if _, ok := parentOf(stack).(*ast.DeferStmt); ok {
							return // releases at function exit
						}
					}
					kind := evAcquire
					if release {
						kind = evRelease
					}
					fi.events = append(fi.events, event{
						kind: kind, pos: call.Pos(), lock: id,
						stack: append([]ast.Node(nil), stack...),
					})
					return
				}
			}
		}
		c.addCall(fi, call, sel.Sel, stack)
	})
}

func (c *checker) addCall(fi *fnInfo, call *ast.CallExpr, name *ast.Ident, stack []ast.Node) {
	fn, ok := c.info.Uses[name].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if fn.Pkg() != c.pass.Pkg && !c.pass.InModule(fn.Pkg()) {
		return
	}
	fi.events = append(fi.events, event{
		kind: evCall, pos: call.Pos(), callee: fn,
		stack: append([]ast.Node(nil), stack...),
	})
}

// lockAt resolves expr.field in expr.field.Lock() to a tracked lock ID
// ("pkgpath.Struct.field"), or "" if the field is not a tracked mutex.
func (c *checker) lockAt(inner *ast.SelectorExpr) string {
	t := c.info.TypeOf(inner.X)
	if t == nil {
		return ""
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	tn := named.Obj()
	if tn.Pkg() == nil {
		return ""
	}
	field := inner.Sel.Name
	if tn.Pkg() == c.pass.Pkg {
		if !c.tracked[tn][field] {
			return ""
		}
	} else {
		var mf MutexesFact
		if !c.pass.ImportObjectFact(tn, &mf) {
			return ""
		}
		found := false
		for _, f := range mf.Fields {
			if f == field {
				found = true
				break
			}
		}
		if !found {
			return ""
		}
	}
	return tn.Pkg().Path() + "." + tn.Name() + "." + field
}

// bfsPath returns a shortest path from start to goal in adj, or nil.
// Neighbor order is the (sorted) insertion order, so it's
// deterministic.
func bfsPath(adj map[string][]string, start, goal string) []string {
	if start == goal {
		return []string{start}
	}
	parent := map[string]string{start: start}
	queue := []string{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range adj[n] {
			if _, seen := parent[m]; seen {
				continue
			}
			parent[m] = n
			if m == goal {
				var path []string
				for at := goal; ; at = parent[at] {
					path = append(path, at)
					if at == start {
						break
					}
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, m)
		}
	}
	return nil
}

// shortLock trims the package path to its base: "a/b/core.Device.mu"
// displays as "core.Device.mu".
func shortLock(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}

func funcDisplay(fn *types.Func) string {
	if named := framework.ReceiverNamed(fn); named != nil {
		return fmt.Sprintf("(*%s).%s", named.Obj().Name(), fn.Name())
	}
	return fn.Name()
}

func parentOf(stack []ast.Node) ast.Node {
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}
