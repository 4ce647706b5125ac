// Package lockcheck implements the catcam-lint analyzer that proves
// the host's mutex discipline. The locks under proof are the mutex
// fields named by //catcam:guarded-by and //catcam:write-guarded-by
// annotations (core.Device.mu, cluster.Cluster.mu,
// cluster.Cluster.routeMu, ...). Four rules:
//
//   - guarded access: a method touching a guarded field must acquire
//     the named mutex first (directly, or be an unexported helper only
//     reachable from methods that hold it — checked transitively);
//   - read-lock writes: a write to a guarded field under an RWMutex
//     requires the write lock, not RLock;
//   - self-deadlock: a function holding a lock must not acquire it
//     again, directly or through a callee;
//   - lock order: the module-wide acquisition order is acyclic.
//
// //catcam:write-guarded-by <mu> is guarded-by for RCU-published
// fields (internal/core/snapshot.go): writes — plain assignment, or
// an atomic mutator call (Store/Swap/CompareAndSwap) on the field —
// require the named mutex, while reads and Load calls are
// deliberately free. This is exactly the single-publisher contract of
// Device.snap: only the update side (under d.mu) may publish, any
// reader may Load.
//
// Each function body is walked once for its lock events and
// in-module calls. A lock's identity is type-based,
// "pkgpath.Struct.field", whichever instance is locked; the guarded
// access rules replay only the receiver's own events, since the
// receiver's mutex is the one guarding its fields. Replay is
// flow-insensitive but position-ordered: an acquire counts for
// everything after it in source order, and a release in a defer
// statement happens at the exit of the function or closure that
// defers it. Calls compose transitively:
// each function exports the set of locks it may acquire (directly or
// via callees) as a fact, so calling a core.Device method while
// holding cluster.Cluster.mu records the edge
// cluster.Cluster.mu→core.Device.mu without seeing core's source.
// An edge from a lock to itself is a self-deadlock; every other edge
// joins the acquisition graph. Each package exports the union of its
// own edges and its in-module imports' edges, so the graph
// accumulates up the import DAG; a local edge that closes a cycle in
// that union is reported at the acquisition site.
//
// Escape hatches: //catcam:allow lock "reason" for the guarded-access,
// read-lock and self-deadlock rules; //catcam:allow lockorder "reason"
// drops the order edge at that site.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"catcam/internal/analysis/framework"
)

// Analyzer is the lockcheck analyzer.
var Analyzer = &framework.Analyzer{
	Name: "lockcheck",
	Doc:  "//catcam:guarded-by mutexes are held where required, never re-acquired, and taken in an acyclic module-wide order",
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
	lock   string // evAcquire/evRelease: the lock ID
	field  string // evAcquire/evRelease: the mutex field name
	read   bool   // RLock/RUnlock
	onRecv bool   // a lock event on the receiver's own mutex, or a call to a method of the receiver
	callee *types.Func
	stack  []ast.Node
}

// touch is one access to a guarded field through the receiver.
type touch struct {
	field *types.Var
	mu    string
	pos   token.Pos
	write bool
	wg    bool // field is write-guarded-by (touch is always a write)
	stack []ast.Node
}

type fnInfo struct {
	obj     *types.Func
	name    string
	events  []event // source order
	touches []touch // methods of annotated structs only
}

type edgeSite struct {
	edge Edge
	pos  token.Pos
	fn   string
}

type checker struct {
	pass     *framework.Pass
	info     *types.Info
	allows   *framework.Allows
	guarded  map[*types.Var]string // field -> mutex field name
	wguarded map[*types.Var]string
	tracked  map[*types.TypeName]map[string]bool // annotated struct -> its mutex fields
}

func run(pass *framework.Pass) error {
	c := &checker{
		pass:     pass,
		info:     pass.TypesInfo,
		allows:   framework.NewAllows(pass.Fset, pass.Files),
		guarded:  map[*types.Var]string{},
		wguarded: map[*types.Var]string{},
		tracked:  map[*types.TypeName]map[string]bool{},
	}
	c.collectAnnotations()

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
			fi := c.walk(fd, obj)
			fns = append(fns, fi)
			byObj[obj] = fi
		}
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].obj.Pos() < fns[j].obj.Pos() })

	acquires := c.acquires(fns, byObj)
	c.checkGuarded(fns)
	c.checkOrder(fns, acquires)
	return nil
}

// collectAnnotations records the guarded and write-guarded fields and
// the mutexes they name, reports malformed annotations, and exports
// each annotated struct's mutexes.
func (c *checker) collectAnnotations() {
	for _, file := range c.pass.Files {
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
					if !ok {
						continue
					}
					if muName == "" {
						c.pass.Reportf(field.Pos(), "lock", "//catcam:%s needs a mutex field name", verb)
						continue
					}
					if !structHasMutex(c.info, st, muName) {
						c.pass.Reportf(field.Pos(), "lock", "//catcam:%s %s: %s has no sync.Mutex/RWMutex field named %s", verb, muName, ts.Name.Name, muName)
						continue
					}
					if c.tracked[tn] == nil {
						c.tracked[tn] = map[string]bool{}
					}
					c.tracked[tn][muName] = true
					for _, name := range field.Names {
						if v, ok := c.info.Defs[name].(*types.Var); ok {
							if verb == "guarded-by" {
								c.guarded[v] = muName
							} else {
								c.wguarded[v] = muName
							}
						}
					}
				}
			}
			return false
		})
	}
	for tn, fields := range c.tracked {
		c.pass.ExportObjectFact(tn, &MutexesFact{Fields: sortedKeys(fields)})
	}
}

// walk is the one pass over a function body: lock events and
// in-module calls for every function, plus guarded-field touches for
// methods of annotated structs. Closure bodies count as part of the
// enclosing function.
func (c *checker) walk(fd *ast.FuncDecl, obj *types.Func) *fnInfo {
	fi := &fnInfo{obj: obj, name: framework.MethodName(obj)}
	recv := framework.ReceiverVar(c.info, fd)
	named := framework.ReceiverNamed(obj)
	if named == nil || c.tracked[named.Obj()] == nil {
		recv = nil // no guarded fields to touch, no receiver state to replay
	}
	onRecv := func(e ast.Expr) bool { return recv != nil && framework.IsIdentFor(c.info, e, recv) }
	addTouch := func(v *types.Var, mu string, pos token.Pos, write, wg bool, stack []ast.Node) {
		fi.touches = append(fi.touches, touch{
			field: v, mu: mu, pos: pos, write: write, wg: wg,
			stack: append([]ast.Node(nil), stack...),
		})
	}

	framework.WalkStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			var name *ast.Ident
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				name = fun
			case *ast.SelectorExpr:
				name = fun.Sel
				if inner, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
					switch op := fun.Sel.Name; op {
					case "Lock", "RLock", "Unlock", "RUnlock":
						lock := c.lockAt(inner)
						if lock == "" {
							break
						}
						kind, pos := evAcquire, n.Pos()
						if op == "Unlock" || op == "RUnlock" {
							kind = evRelease
							if _, ok := framework.ParentOf(stack).(*ast.DeferStmt); ok {
								lit := enclosingFuncLit(stack)
								if lit == nil {
									return // releases at function exit
								}
								pos = lit.Body.Rbrace // releases at the closure's exit
							}
						}
						fi.events = append(fi.events, event{
							kind: kind, pos: pos, lock: lock, field: inner.Sel.Name,
							read:   op == "RLock" || op == "RUnlock",
							onRecv: onRecv(inner.X),
							stack:  append([]ast.Node(nil), stack...),
						})
						return
					case "Store", "Swap", "CompareAndSwap":
						// r.field.Store(...) on a write-guarded field.
						if v, ok := c.info.Uses[inner.Sel].(*types.Var); ok && onRecv(inner.X) {
							if mu, ok := c.wguarded[v]; ok {
								addTouch(v, mu, n.Pos(), true, true, stack)
								return
							}
						}
					}
				}
			default:
				return
			}
			fn, ok := c.info.Uses[name].(*types.Func)
			if !ok || fn.Pkg() == nil || (fn.Pkg() != c.pass.Pkg && !c.pass.InModule(fn.Pkg())) {
				return
			}
			sameRecv := false
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && onRecv(sel.X) {
				rn := framework.ReceiverNamed(fn)
				sameRecv = rn != nil && rn.Obj() == named.Obj()
			}
			fi.events = append(fi.events, event{
				kind: evCall, pos: n.Pos(), callee: fn, onRecv: sameRecv,
				stack: append([]ast.Node(nil), stack...),
			})

		case *ast.SelectorExpr:
			if !onRecv(n.X) {
				return
			}
			v, ok := c.info.Uses[n.Sel].(*types.Var)
			if !ok {
				return
			}
			if mu, ok := c.guarded[v]; ok {
				addTouch(v, mu, n.Pos(), isWrite(n, stack), false, stack)
				return
			}
			// Write-guarded fields: only plain-assignment writes count
			// as touches (reads and Load calls are free by design; the
			// atomic mutators are caught in the CallExpr case above).
			if mu, ok := c.wguarded[v]; ok && isWrite(n, stack) && !isAtomicMutatorBase(n, stack) {
				addTouch(v, mu, n.Pos(), true, true, stack)
			}
		}
	})
	sort.Slice(fi.events, func(i, j int) bool { return fi.events[i].pos < fi.events[j].pos })
	return fi
}

// enclosingFuncLit returns the innermost function literal on the
// stack, or nil when the node sits directly in the declared function.
func enclosingFuncLit(stack []ast.Node) *ast.FuncLit {
	for i := len(stack) - 1; i >= 0; i-- {
		if lit, ok := stack[i].(*ast.FuncLit); ok {
			return lit
		}
	}
	return nil
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
		if !c.pass.ImportObjectFact(tn, &mf) || !slices.Contains(mf.Fields, field) {
			return ""
		}
	}
	return tn.Pkg().Path() + "." + tn.Name() + "." + field
}

// acquires computes, once, the set of locks each function may acquire
// through its own events and its callees': local callees iterate to a
// fixpoint, imported ones contribute their exported AcquiresFact. It
// exports the result and returns the lookup the order replay uses.
func (c *checker) acquires(fns []*fnInfo, byObj map[*types.Func]*fnInfo) func(*types.Func) []string {
	local := map[*types.Func]map[string]bool{}
	for _, fi := range fns {
		set := map[string]bool{}
		for _, e := range fi.events {
			if e.kind == evAcquire {
				set[e.lock] = true
			}
		}
		local[fi.obj] = set
	}
	imported := map[*types.Func][]string{}
	calleeLocks := func(fn *types.Func) []string {
		if _, ok := byObj[fn]; ok {
			return sortedKeys(local[fn])
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
					if !local[fi.obj][l] {
						local[fi.obj][l] = true
						changed = true
					}
				}
			}
		}
	}
	for _, fi := range fns {
		if len(local[fi.obj]) > 0 {
			c.pass.ExportObjectFact(fi.obj, &AcquiresFact{Locks: sortedKeys(local[fi.obj])})
		}
	}
	return calleeLocks
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkGuarded runs the guarded-access and read-lock rules over the
// methods of annotated structs.
func (c *checker) checkGuarded(fns []*fnInfo) {
	// needs(m): mutexes m touches unprotected — must be held by callers.
	needs := map[*types.Func]map[string]bool{}
	for _, fi := range fns {
		needs[fi.obj] = map[string]bool{}
		for _, t := range fi.touches {
			if heldAt(fi.events, t.mu, t.pos) == heldNone {
				needs[fi.obj][t.mu] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			for _, e := range fi.events {
				if e.kind != evCall || !e.onRecv {
					continue
				}
				for mu := range needs[e.callee] {
					if heldAt(fi.events, mu, e.pos) == heldNone && !needs[fi.obj][mu] {
						needs[fi.obj][mu] = true
						changed = true
					}
				}
			}
		}
	}

	for _, fi := range fns {
		exported := fi.obj.Exported()
		for _, t := range fi.touches {
			held := heldAt(fi.events, t.mu, t.pos)
			kind := "guarded"
			if t.wg {
				kind = "write-guarded"
			}
			switch {
			case held == heldNone && exported:
				if !c.allows.Allowed("lock", t.pos, t.stack) {
					if t.wg {
						c.pass.Reportf(t.pos, "lock", "%s writes %s (write-guarded by %s) without holding %s: snapshot publication outside the update path", fi.name, t.field.Name(), t.mu, t.mu)
					} else {
						c.pass.Reportf(t.pos, "lock", "%s accesses %s (guarded by %s) without holding %s", fi.name, t.field.Name(), t.mu, t.mu)
					}
				}
			case held == heldRead && t.write:
				if !c.allows.Allowed("lock", t.pos, t.stack) {
					c.pass.Reportf(t.pos, "lock", "%s writes %s (%s by %s) while holding only the read lock", fi.name, t.field.Name(), kind, t.mu)
				}
			}
		}
		if !exported {
			continue
		}
		for _, e := range fi.events {
			if e.kind != evCall || !e.onRecv {
				continue
			}
			for mu := range needs[e.callee] {
				if heldAt(fi.events, mu, e.pos) == heldNone && !c.allows.Allowed("lock", e.pos, e.stack) {
					c.pass.Reportf(e.pos, "lock", "%s calls %s, which accesses fields guarded by %s, without holding %s", fi.name, framework.MethodName(e.callee), mu, mu)
				}
			}
		}
	}
}

const (
	heldNone = iota
	heldRead
	heldWrite
)

// heldAt replays the receiver's own lock events before pos and returns
// the lock state of its mutex field mu. Releases inside defer
// statements were dropped at collection, so defer-unlock idioms keep
// the lock held for the rest of the body.
func heldAt(events []event, mu string, pos token.Pos) int {
	state := heldNone
	for _, e := range events {
		if e.kind == evCall || !e.onRecv || e.field != mu || e.pos >= pos {
			continue
		}
		switch {
		case e.kind == evAcquire && e.read:
			state = heldRead
		case e.kind == evAcquire:
			state = heldWrite
		default:
			state = heldNone
		}
	}
	return state
}

// checkOrder replays each function's held set. Acquiring a held lock
// again — directly or through a callee — is a self-deadlock; every
// other acquisition under a held lock is an edge of the order graph,
// reported when it closes a cycle.
func (c *checker) checkOrder(fns []*fnInfo, calleeLocks func(*types.Func) []string) {
	var sites []edgeSite
	for _, fi := range fns {
		held := map[string]bool{}
		addSite := func(e event, from, to string) {
			if from == to {
				c.reportSelfDeadlock(fi, e, to)
				return
			}
			// An allowed site drops the edge entirely: the annotation
			// vouches for that ordering.
			if !c.allows.Allowed("lockorder", e.pos, e.stack) {
				sites = append(sites, edgeSite{edge: Edge{From: from, To: to}, pos: e.pos, fn: fi.name})
			}
		}
		for _, e := range fi.events {
			switch e.kind {
			case evAcquire:
				for h := range held {
					addSite(e, h, e.lock)
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
						addSite(e, h, l)
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
	for _, imp := range c.pass.Pkg.Imports() {
		if !c.pass.InModule(imp) {
			continue
		}
		var ef EdgesFact
		if c.pass.ImportPackageFact(imp, &ef) {
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
	c.pass.ExportPackageFact(union)

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
		c.pass.Reportf(s.pos, "lockorder",
			"%s acquires %s while holding %s, closing a lock-order cycle: %s",
			s.fn, shortLock(s.edge.To), shortLock(s.edge.From), strings.Join(chain, " -> "))
	}
}

// reportSelfDeadlock reports the order graph's self-edge: event e
// acquires lock while fi already holds it.
func (c *checker) reportSelfDeadlock(fi *fnInfo, e event, lock string) {
	if c.allows.Allowed("lock", e.pos, e.stack) {
		return
	}
	mu := lock[strings.LastIndex(lock, ".")+1:]
	if e.kind == evCall {
		callee := framework.MethodName(e.callee)
		c.pass.Reportf(e.pos, "lock", "%s calls %s while holding %s: %s acquires %s again (self-deadlock)", fi.name, callee, mu, callee, mu)
		return
	}
	c.pass.Reportf(e.pos, "lock", "%s acquires %s while already holding it (self-deadlock)", fi.name, mu)
}

// isAtomicMutatorBase reports whether sel is the base of an atomic
// mutator call — sel is the r.field in r.field.Store(...) — which the
// CallExpr case already recorded as a touch. (isWrite sees the
// address-of the method's pointer receiver takes and would otherwise
// double-count it.)
func isAtomicMutatorBase(sel *ast.SelectorExpr, stack []ast.Node) bool {
	p, ok := framework.ParentOf(stack).(*ast.SelectorExpr)
	if !ok || p.X != sel {
		return false
	}
	switch p.Sel.Name {
	case "Store", "Swap", "CompareAndSwap", "Load":
		return true
	}
	return false
}

// isWrite reports whether the selector appears on the left-hand side
// of an assignment, in an inc/dec statement, or under an address-of
// (which may be used to write).
func isWrite(sel *ast.SelectorExpr, stack []ast.Node) bool {
	node := ast.Node(sel)
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs.Pos() <= node.Pos() && node.End() <= lhs.End() {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return true
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				return true
			}
		case ast.Stmt:
			return false
		}
	}
	return false
}

// structHasMutex reports whether the struct literal declares a field
// muName of type sync.Mutex or sync.RWMutex (value or pointer).
func structHasMutex(info *types.Info, st *ast.StructType, muName string) bool {
	for _, f := range st.Fields.List {
		for _, name := range f.Names {
			if name.Name != muName {
				continue
			}
			v, ok := info.Defs[name].(*types.Var)
			if !ok {
				return false
			}
			t := v.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || named.Obj().Pkg() == nil {
				return false
			}
			if named.Obj().Pkg().Path() != "sync" {
				return false
			}
			return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
		}
	}
	return false
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
