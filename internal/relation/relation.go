// Package relation holds the event identifiers of a candidate execution
// and the one graph the axiomatic checker decides its constraints on
// (§2.1: "At the core of an axiomatic model checker ... is a graph-search
// algorithm"): a flat edge list over dense event IDs with a Kahn
// acyclicity pass and, for a cyclic graph, a canonical witness cycle.
package relation

import (
	"cmp"
	"slices"
	"sort"
)

// EventID identifies an event within one candidate execution. IDs are
// dense indices assigned by the execution builder.
type EventID int32

// Edge is one ordered pair of a relation.
type Edge struct {
	From, To EventID
}

// Graph is a directed graph over dense EventIDs, held as a flat edge
// list in insertion order. It is the one acyclicity engine of the
// checker: the exact procedure and the fast path append the edges of a
// constraint graph and ask Acyclic; only an exact check that got "no"
// asks Cycle for the witness. The zero value is ready. A Graph keeps
// its edge list and its CSR, in-degree and queue scratch across Reset,
// so a kept Graph stops allocating once it has seen its working set.
type Graph struct {
	edges []Edge
	// cuts holds the end offsets of the closed segments; the edges after
	// the last cut form the open one.
	cuts []int
	// n is one more than the largest EventID added.
	n int

	// CSR of the latest bucketed prefix: node v's successors are
	// adj[off[v]:off[v+1]] in list order, indeg[v] counts its in-edges.
	off, indeg []int32
	adj, queue []EventID
}

// Reset empties the graph for reuse.
func (g *Graph) Reset() {
	g.edges, g.cuts, g.n = g.edges[:0], g.cuts[:0], 0
}

// Add appends the edge (from, to). Duplicates and self-loops are kept:
// a duplicate changes no answer, a self-loop is a cycle.
func (g *Graph) Add(from, to EventID) {
	g.edges = append(g.edges, Edge{from, to})
	g.n = max(g.n, int(from)+1, int(to)+1)
}

// Cut closes the current segment: the edges added since the previous
// Cut (or Reset) were one relation, and Cycle orders them among
// themselves by (From, To) whatever order they were added in.
func (g *Graph) Cut() { g.cuts = append(g.cuts, len(g.edges)) }

// Edges returns the edge list. It must not be mutated and is only good
// until the next Add, Reset or Cycle.
func (g *Graph) Edges() []Edge { return g.edges }

// Acyclic decides whether the graph has no cycle, by Kahn's algorithm:
// bucket the edges into CSR form and drain the nodes no remaining edge
// enters; a node left over sits on or behind a cycle. Edge order does
// not matter here and nothing is sorted.
func (g *Graph) Acyclic() bool { return g.acyclic(len(g.edges)) }

// acyclic is Acyclic for the graph of the first k edges.
func (g *Graph) acyclic(k int) bool {
	g.bucket(k)
	queue := g.queue[:0]
	for v, d := range g.indeg {
		if d == 0 {
			queue = append(queue, EventID(v))
		}
	}
	drained := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		drained++
		for _, w := range g.adj[g.off[v]:g.off[v+1]] {
			if g.indeg[w]--; g.indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	g.queue = queue
	return drained == g.n
}

// bucket fills off, adj and indeg for the graph of the first k edges.
// The counting sort is stable, so each successor list is in list order.
func (g *Graph) bucket(k int) {
	// Counts land two places up, so that after the running sum off[v+1]
	// is where v's successors start and the fill, advancing it to where
	// they end, leaves off[v] at v's start for every v.
	g.off = zeroed(g.off, g.n+2)
	g.indeg = zeroed(g.indeg, g.n)
	g.adj = slices.Grow(g.adj[:0], k)[:k]
	for _, e := range g.edges[:k] {
		g.off[e.From+2]++
		g.indeg[e.To]++
	}
	for v := 2; v < len(g.off); v++ {
		g.off[v] += g.off[v-1]
	}
	for _, e := range g.edges[:k] {
		g.adj[g.off[e.From+1]] = e.To
		g.off[e.From+1]++
	}
}

// zeroed returns s with length n and every element zero, reusing its
// array when that is large enough.
func zeroed(s []int32, n int) []int32 {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// Cycle returns the witness of a cyclic graph, nil for an acyclic one.
//
// The witness is defined on the insertion sequence, not on an engine:
// take the segments in the order they were cut, each sorted by
// (From, To), as one sequence of edges. Its shortest cyclic prefix ends
// in the closing edge (from, to): the first edge whose target already
// reaches its source. The witness is the breadth-first path to → … →
// from over the edges before the closing one, each node's successors
// tried in sequence order; the closing edge leads from its last element
// back to its first, and a self-loop's witness is its one node. This is
// the cycle the Pearce–Kelly engine this type replaced reported, which
// every recorded verdict and golden carries: that engine took the same
// sequence edge by edge, refused (from, to) exactly when to already
// reached from — which makes the refused edge the last one of the
// shortest cyclic prefix, whatever order the engine kept its nodes in —
// and answered with that same breadth-first search. (It searched only
// the nodes it ordered no later than from, which cannot change the
// path: a node ordered after from does not reach from, nor does
// anything found through it, so leaving them out removes no node of
// the path and reorders none of the others.) A duplicate edge never
// closes a prefix and comes after its twin in every successor list, so
// keeping duplicates, which that engine dropped, changes nothing.
//
// Only this path sorts: a valid execution — all but the last of any
// campaign — is decided by Acyclic on the unsorted list. Cyclicity is
// monotone in the prefix, so the closing edge is found by binary search
// with one Kahn pass per probe. The edge list is left sorted by segment.
func (g *Graph) Cycle() []EventID {
	if g.Acyclic() {
		return nil
	}
	start := 0
	for _, end := range append(g.cuts, len(g.edges)) {
		slices.SortFunc(g.edges[start:end], func(a, b Edge) int {
			return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
		})
		start = end
	}
	k := sort.Search(len(g.edges), func(k int) bool { return !g.acyclic(k) })
	from, to := g.edges[k-1].From, g.edges[k-1].To
	if from == to {
		return []EventID{from}
	}

	g.bucket(k - 1)
	const unseen EventID = -1
	parent := make([]EventID, g.n)
	for i := range parent {
		parent[i] = unseen
	}
	parent[to] = to
	queue := append(g.queue[:0], to)
	for head := 0; parent[from] == unseen; head++ {
		v := queue[head]
		for _, s := range g.adj[g.off[v]:g.off[v+1]] {
			if parent[s] == unseen {
				parent[s] = v
				queue = append(queue, s)
			}
		}
	}
	g.queue = queue
	cycle := []EventID{from}
	for v := from; v != to; {
		v = parent[v]
		cycle = append(cycle, v)
	}
	slices.Reverse(cycle)
	return cycle
}
