// Package depgraph maintains the rule dependency graph that TCAM update
// algorithms reason over.
//
// Two stored entries are *dependent* when their ternary words overlap
// (some key matches both) — only then does the address-based priority
// encoder constrain their relative placement: the entry that wins under
// the rule order must sit at a lower address. The graph keeps, for every
// entry, its direct uppers (dependents that must be placed above it) and
// lowers (below it). FastRule, RuleTris and POT all derive their update
// schedules from this structure; RuleTris additionally works on the
// *minimum* dependency graph, the transitive reduction, whose
// maintenance cost is exactly the firmware overhead the paper measures.
//
// Every pairwise overlap comparison and every reachability step is
// counted, so callers can convert algorithmic work into firmware time.
package depgraph

import (
	"fmt"
	"sort"

	"catcam/internal/tcam"
)

// Graph is an incrementally-maintained dependency graph over entries
// identified by caller-chosen integer handles.
type Graph struct {
	nodes map[int]tcam.Entry
	// up[h]: handles of entries that win over h and overlap it.
	up map[int]map[int]bool
	// down[h]: handles of entries h wins over and overlaps.
	down map[int]map[int]bool

	comparisons uint64 // pairwise overlap checks performed
	traversals  uint64 // reachability steps performed
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[int]tcam.Entry),
		up:    make(map[int]map[int]bool),
		down:  make(map[int]map[int]bool),
	}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Comparisons returns the number of overlap checks performed so far.
func (g *Graph) Comparisons() uint64 { return g.comparisons }

// Traversals returns the number of reachability steps performed so far.
func (g *Graph) Traversals() uint64 { return g.traversals }

// ResetCounters zeroes the work counters.
func (g *Graph) ResetCounters() {
	g.comparisons = 0
	g.traversals = 0
}

// Entry returns the entry stored under handle h.
func (g *Graph) Entry(h int) (tcam.Entry, bool) {
	e, ok := g.nodes[h]
	return e, ok
}

// Add inserts entry e under handle h, computing its dependencies against
// every existing node (one overlap comparison each — the O(n) scan the
// paper attributes to insertion-time priority comparison).
func (g *Graph) Add(h int, e tcam.Entry) {
	if _, dup := g.nodes[h]; dup {
		panic(fmt.Sprintf("depgraph: duplicate handle %d", h))
	}
	g.nodes[h] = e
	g.up[h] = make(map[int]bool)
	g.down[h] = make(map[int]bool)
	for oh, oe := range g.nodes {
		if oh == h {
			continue
		}
		g.comparisons++
		if !e.Word.Overlaps(oe.Word) {
			continue
		}
		if e.Before(oe) { // oe wins: oe is above e
			g.up[h][oh] = true
			g.down[oh][h] = true
		} else {
			g.down[h][oh] = true
			g.up[oh][h] = true
		}
	}
}

// Remove deletes handle h and all its edges.
func (g *Graph) Remove(h int) {
	if _, ok := g.nodes[h]; !ok {
		panic(fmt.Sprintf("depgraph: remove of unknown handle %d", h))
	}
	for oh := range g.up[h] {
		delete(g.down[oh], h)
	}
	for oh := range g.down[h] {
		delete(g.up[oh], h)
	}
	delete(g.up, h)
	delete(g.down, h)
	delete(g.nodes, h)
}

// Uppers returns the handles that must be placed above h.
func (g *Graph) Uppers(h int) []int { return keys(g.up[h]) }

// Lowers returns the handles that must be placed below h.
func (g *Graph) Lowers(h int) []int { return keys(g.down[h]) }

// UpperCount and LowerCount avoid allocation for size queries.
func (g *Graph) UpperCount(h int) int { return len(g.up[h]) }

// LowerCount returns the number of entries that must sit below h.
func (g *Graph) LowerCount(h int) int { return len(g.down[h]) }

// keys returns m's handles in ascending order: the update schedulers
// break ties by neighbour order, so map order would make their moves
// and firmware work differ from run to run.
func keys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// reachesVia reports whether dst is reachable from src by walking edges
// of the given adjacency (excluding the trivial zero-length path), and
// counts traversal steps.
func (g *Graph) reachesVia(adj map[int]map[int]bool, src, dst int) bool {
	if src == dst {
		return false
	}
	seen := map[int]bool{src: true}
	stack := []int{src}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for next := range adj[n] {
			g.traversals++
			if next == dst {
				return true
			}
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

// ReducedUppers returns h's uppers with transitively-implied edges
// removed: an upper u is dropped when some other upper w of h already
// reaches u along up-edges (h→w→…→u makes the direct edge h→u
// redundant). This is the per-node slice of the minimum dependency
// graph RuleTris maintains; the DFS work is counted in Traversals.
//
// Up-edges strictly increase rank, so processing uppers in ascending
// rank order lets one shared visited set answer every redundancy query
// with a single traversal of the ancestor closure (any witness w for u
// has lower rank than u and is therefore processed first).
func (g *Graph) ReducedUppers(h int) []int {
	return g.reduce(g.Uppers(h), g.up, false)
}

// ReducedLowers is the symmetric reduction for down-edges (which
// strictly decrease rank, hence descending processing order).
func (g *Graph) ReducedLowers(h int) []int {
	return g.reduce(g.Lowers(h), g.down, true)
}

func (g *Graph) reduce(neighbors []int, adj map[int]map[int]bool, descending bool) []int {
	sort.Slice(neighbors, func(i, j int) bool {
		a, b := g.nodes[neighbors[i]], g.nodes[neighbors[j]]
		if descending {
			a, b = b, a
		}
		return a.Before(b)
	})
	visited := make(map[int]bool, len(neighbors))
	out := neighbors[:0:0]
	for _, u := range neighbors {
		if visited[u] {
			continue // reachable from an earlier (kept or dropped) neighbor
		}
		out = append(out, u)
		g.markReachable(adj, u, visited)
	}
	return out
}

// markReachable adds everything reachable from src (including src) to
// visited, counting traversal steps.
func (g *Graph) markReachable(adj map[int]map[int]bool, src int, visited map[int]bool) {
	if visited[src] {
		return
	}
	visited[src] = true
	stack := []int{src}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for next := range adj[n] {
			g.traversals++
			if !visited[next] {
				visited[next] = true
				stack = append(stack, next)
			}
		}
	}
}

// CheckAcyclic verifies the graph has no up-edge cycles (it cannot, by
// construction from a strict total order, but the invariant is cheap
// insurance for tests). Returns an error naming a handle on a cycle.
func (g *Graph) CheckAcyclic() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[int]int, len(g.nodes))
	var visit func(h int) error
	visit = func(h int) error {
		color[h] = gray
		for next := range g.up[h] {
			switch color[next] {
			case gray:
				return fmt.Errorf("depgraph: cycle through handle %d", next)
			case white:
				if err := visit(next); err != nil {
					return err
				}
			}
		}
		color[h] = black
		return nil
	}
	for h := range g.nodes {
		if color[h] == white {
			if err := visit(h); err != nil {
				return err
			}
		}
	}
	return nil
}

// LongestChain returns the length (in edges) of the longest dependency
// chain in the graph — the quantity that bounds worst-case movements
// for chain-based schedulers.
func (g *Graph) LongestChain() int {
	memo := make(map[int]int, len(g.nodes))
	var depth func(h int) int
	depth = func(h int) int {
		if d, ok := memo[h]; ok {
			return d
		}
		memo[h] = 0 // guards against (impossible) cycles
		best := 0
		for next := range g.up[h] {
			g.traversals++
			if d := depth(next) + 1; d > best {
				best = d
			}
		}
		memo[h] = best
		return best
	}
	best := 0
	for h := range g.nodes {
		if d := depth(h); d > best {
			best = d
		}
	}
	return best
}
