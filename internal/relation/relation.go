// Package relation implements binary relations over memory-consistency
// events and the graph algorithms the axiomatic checker is built on
// (§2.1: "At the core of an axiomatic model checker ... is a graph-search
// algorithm"). Relations are edge sets over dense event IDs. The checker
// decides acyclicity on the incremental engine (Topo); AcyclicCheck, an
// iterative three-colour DFS returning a concrete cycle witness, is the
// reference the engine's tests compare it against.
package relation

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// EventID identifies an event within one candidate execution. IDs are
// dense indices assigned by the execution builder.
type EventID int32

// Edge is one ordered pair of a relation.
type Edge struct {
	From, To EventID
}

// Relation is a mutable binary relation over EventIDs. The zero value is
// not ready for use; call New.
type Relation struct {
	succ map[EventID]map[EventID]struct{}
	n    int // edge count
}

// New returns an empty relation.
func New() *Relation {
	return &Relation{succ: make(map[EventID]map[EventID]struct{})}
}

// Add inserts the edge (from, to). Duplicate insertions are ignored.
func (r *Relation) Add(from, to EventID) {
	s, ok := r.succ[from]
	if !ok {
		s = make(map[EventID]struct{})
		r.succ[from] = s
	}
	if _, dup := s[to]; !dup {
		s[to] = struct{}{}
		r.n++
	}
}

// Reset empties the relation for reuse, keeping the allocated per-node
// successor sets so a pooled relation stops allocating once it has seen
// its working set.
func (r *Relation) Reset() {
	for _, s := range r.succ {
		clear(s)
	}
	r.n = 0
}

// Has reports whether the edge (from, to) is present.
func (r *Relation) Has(from, to EventID) bool {
	_, ok := r.succ[from][to]
	return ok
}

// Len returns the number of edges.
func (r *Relation) Len() int { return r.n }

// Successors returns the successors of from in ascending order.
func (r *Relation) Successors(from EventID) []EventID {
	s := r.succ[from]
	out := make([]EventID, 0, len(s))
	for to := range s {
		out = append(out, to)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Edges returns all edges in deterministic order.
func (r *Relation) Edges() []Edge { return r.AppendEdges(nil) }

// AppendEdges appends all edges to buf in Edges' order — by From, then
// To — and returns it: the variant for callers that keep a buffer.
func (r *Relation) AppendEdges(buf []Edge) []Edge {
	start := len(buf)
	buf = slices.Grow(buf, r.n)
	for from, s := range r.succ {
		for to := range s {
			buf = append(buf, Edge{from, to})
		}
	}
	slices.SortFunc(buf[start:], func(a, b Edge) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
	return buf
}

// dfs colours.
const (
	white = iota
	grey
	black
)

// AcyclicCheck decides whether the relation is acyclic. If a cycle exists,
// it returns ok=false and the cycle as a sequence of events e0, e1, ...,
// ek where each consecutive pair is an edge and (ek, e0) is an edge.
// The search is iterative to tolerate deep graphs, and deterministic.
func (r *Relation) AcyclicCheck() (cycle []EventID, ok bool) {
	roots := make([]EventID, 0, len(r.succ))
	for from := range r.succ {
		roots = append(roots, from)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })

	colour := make(map[EventID]int8, len(r.succ))
	type frame struct {
		node EventID
		next int
		adj  []EventID
	}
	var stack []frame
	onStack := make(map[EventID]int) // node -> index into stack

	for _, root := range roots {
		if colour[root] != white {
			continue
		}
		stack = stack[:0]
		for k := range onStack {
			delete(onStack, k)
		}
		colour[root] = grey
		stack = append(stack, frame{node: root, adj: r.Successors(root)})
		onStack[root] = 0
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next >= len(f.adj) {
				colour[f.node] = black
				delete(onStack, f.node)
				stack = stack[:len(stack)-1]
				continue
			}
			next := f.adj[f.next]
			f.next++
			switch colour[next] {
			case white:
				colour[next] = grey
				onStack[next] = len(stack)
				stack = append(stack, frame{node: next, adj: r.Successors(next)})
			case grey:
				// Found a back edge: the cycle is next ... top.
				start := onStack[next]
				cyc := make([]EventID, 0, len(stack)-start)
				for i := start; i < len(stack); i++ {
					cyc = append(cyc, stack[i].node)
				}
				return cyc, false
			}
		}
	}
	return nil, true
}

// String renders the relation as a compact edge list for debugging.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString("{")
	for i, e := range r.Edges() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d->%d", e.From, e.To)
	}
	b.WriteString("}")
	return b.String()
}
