package relation

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// The naive reference below shares no code with Graph: a recursive
// three-colour DFS for the decision, and for the witness the definition
// Graph.Cycle documents, executed literally.

// refAcyclic decides acyclicity by recursive depth-first search.
func refAcyclic(edges []Edge) bool {
	succ := map[EventID][]EventID{}
	for _, e := range edges {
		succ[e.From] = append(succ[e.From], e.To)
	}
	const grey, black = 1, 2
	colour := map[EventID]int{}
	var visit func(EventID) bool
	visit = func(v EventID) bool {
		colour[v] = grey
		for _, w := range succ[v] {
			if colour[w] == grey || colour[w] == 0 && !visit(w) {
				return false
			}
		}
		colour[v] = black
		return true
	}
	for v := range succ {
		if colour[v] == 0 && !visit(v) {
			return false
		}
	}
	return true
}

// refPath returns the breadth-first path src → … → dst over edges, each
// node's successors tried in list order, or nil if dst is out of reach.
// A node reaches itself by the one-element path.
func refPath(edges []Edge, src, dst EventID) []EventID {
	if src == dst {
		return []EventID{src}
	}
	parent := map[EventID]EventID{src: src}
	queue := []EventID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range edges {
			if e.From != v {
				continue
			}
			if _, seen := parent[e.To]; seen {
				continue
			}
			parent[e.To] = v
			if e.To == dst {
				var back []EventID
				for p := dst; p != src; p = parent[p] {
					back = append(back, p)
				}
				path := []EventID{src}
				for i := len(back) - 1; i >= 0; i-- {
					path = append(path, back[i])
				}
				return path
			}
			queue = append(queue, e.To)
		}
	}
	return nil
}

// refCycle is the witness contract: sort each segment by (From, To),
// take the edges one at a time, and the first edge (from, to) whose
// target already reaches its source over the edges taken so far closes
// the cycle to → … → from.
func refCycle(segments [][]Edge) []EventID {
	var taken []Edge
	for _, seg := range segments {
		seg = append([]Edge(nil), seg...)
		sort.Slice(seg, func(i, j int) bool {
			if seg[i].From != seg[j].From {
				return seg[i].From < seg[j].From
			}
			return seg[i].To < seg[j].To
		})
		for _, e := range seg {
			if path := refPath(taken, e.To, e.From); path != nil {
				return path
			}
			taken = append(taken, e)
		}
	}
	return nil
}

// sameAsReference fills g with the segments and holds its decision and witness
// to the reference; it returns the witness.
func sameAsReference(t *testing.T, g *Graph, segments ...[]Edge) []EventID {
	t.Helper()
	g.Reset()
	var flat []Edge
	for i, seg := range segments {
		if i > 0 {
			g.Cut()
		}
		for _, e := range seg {
			g.Add(e.From, e.To)
		}
		flat = append(flat, seg...)
	}
	if got := g.Edges(); len(got) != len(flat) || len(flat) > 0 && !reflect.DeepEqual(got, flat) {
		t.Fatalf("Edges = %v, want insertion order %v", got, flat)
	}
	want := refCycle(segments)
	if acyclic := refAcyclic(flat); acyclic != (want == nil) {
		t.Fatalf("the two references disagree on %v: DFS acyclic=%v, witness %v", segments, acyclic, want)
	}
	if got := g.Acyclic(); got != (want == nil) {
		t.Fatalf("Acyclic = %v on %v, reference witness %v", got, segments, want)
	}
	cycle := g.Cycle()
	if !reflect.DeepEqual(cycle, want) {
		t.Fatalf("Cycle = %v, reference %v on %v", cycle, want, segments)
	}
	// Each consecutive pair of a witness, and its wrap-around, is an edge.
	for i := range cycle {
		from, to := cycle[i], cycle[(i+1)%len(cycle)]
		if !slices.Contains(flat, Edge{from, to}) {
			t.Fatalf("witness %v: step %d->%d is not an edge of %v", cycle, from, to, segments)
		}
	}
	// Asking again, on the now sorted list, changes nothing.
	if again := g.Cycle(); !reflect.DeepEqual(again, cycle) || g.Acyclic() != (want == nil) {
		t.Fatalf("second Cycle = %v, first %v", again, cycle)
	}
	return cycle
}

func chain(n int) []Edge {
	var es []Edge
	for i := 0; i+1 < n; i++ {
		es = append(es, Edge{EventID(i), EventID(i + 1)})
	}
	return es
}

func TestAcyclicSimple(t *testing.T) {
	g := new(Graph)
	if g.Cycle() != nil || !g.Acyclic() {
		t.Fatal("empty graph reported cyclic")
	}
	if cycle := sameAsReference(t, g, chain(4)); cycle != nil {
		t.Errorf("chain reported cyclic: %v", cycle)
	}
	if cycle := sameAsReference(t, g, []Edge{{0, 1}, {1, 2}, {2, 0}}); len(cycle) != 3 {
		t.Fatalf("3-cycle witness %v, want length 3", cycle)
	}
}

func TestSelfLoop(t *testing.T) {
	if cycle := sameAsReference(t, new(Graph), []Edge{{4, 4}}); !reflect.DeepEqual(cycle, []EventID{4}) {
		t.Fatalf("self loop: cycle=%v, want [4]", cycle)
	}
}

// TestTopoSelfEdgeIsCycle: a self-loop closes the prefix it ends, even
// behind edges that sort after it and a longer cycle in a later segment.
// (This and the other TestTopo* names are kept from the topological
// engine these inputs first pinned.)
func TestTopoSelfEdgeIsCycle(t *testing.T) {
	cycle := sameAsReference(t, new(Graph), []Edge{{2, 3}, {1, 1}, {0, 2}}, []Edge{{3, 0}})
	if !reflect.DeepEqual(cycle, []EventID{1}) {
		t.Fatalf("cycle = %v, want [1]", cycle)
	}
}

// TestTopoDuplicateEdgesIgnored: duplicates, within a segment and across
// segments, change neither the decision nor the witness.
func TestTopoDuplicateEdgesIgnored(t *testing.T) {
	g := new(Graph)
	if cycle := sameAsReference(t, g, []Edge{{0, 1}, {0, 1}, {0, 1}}, []Edge{{0, 1}}); cycle != nil {
		t.Fatalf("duplicate edges reported cyclic: %v", cycle)
	}
	plain := sameAsReference(t, g, []Edge{{0, 1}, {1, 2}}, []Edge{{2, 0}})
	dup := sameAsReference(t, g, []Edge{{0, 1}, {1, 2}, {0, 1}}, []Edge{{1, 2}, {2, 0}, {2, 0}})
	if !reflect.DeepEqual(plain, dup) {
		t.Fatalf("witness %v with duplicates, %v without", dup, plain)
	}
}

// TestTopoCycleWitnessShape: the witness is the path from the closing
// edge's target to its source, and the closing edge leads back.
func TestTopoCycleWitnessShape(t *testing.T) {
	g := new(Graph)
	cycle := sameAsReference(t, g, chain(4), []Edge{{3, 0}})
	if !reflect.DeepEqual(cycle, []EventID{0, 1, 2, 3}) {
		t.Fatalf("cycle = %v, want path 0..3", cycle)
	}
	// A shortcut added earlier is preferred by the breadth-first search;
	// one in the closing edge's own segment that sorts after it is not
	// part of the prefix.
	if cycle := sameAsReference(t, g, chain(4), []Edge{{0, 2}}, []Edge{{3, 0}, {3, 1}}); !reflect.DeepEqual(cycle, []EventID{0, 2, 3}) {
		t.Fatalf("cycle = %v, want [0 2 3]", cycle)
	}
	// Sorting decides which edge closes: (2, 0) is added last but sorts
	// first in its segment.
	if cycle := sameAsReference(t, g, chain(4), []Edge{{3, 1}, {2, 0}}); !reflect.DeepEqual(cycle, []EventID{0, 1, 2}) {
		t.Fatalf("cycle = %v, want [0 1 2]", cycle)
	}
	// A graph that answered "cyclic" is as usable as any after Reset.
	if cycle := sameAsReference(t, g, []Edge{{0, 4}}); cycle != nil {
		t.Fatalf("graph unusable after a cycle: %v", cycle)
	}
}

func TestAcyclicPropertyDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := new(Graph)
	for i := 0; i < 200; i++ {
		// Forward edges over a random permutation: acyclic by construction.
		n := 2 + rng.Intn(40)
		perm := rng.Perm(n)
		var edges []Edge
		for j := rng.Intn(120); j > 0; j-- {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			if perm[a] > perm[b] {
				a, b = b, a
			}
			edges = append(edges, Edge{EventID(a), EventID(b)})
		}
		if cycle := sameAsReference(t, g, edges); cycle != nil {
			t.Fatalf("DAG %d reported cyclic, witness %v, edges %v", i, cycle, edges)
		}
	}
}

func TestCycleWitnessProperty(t *testing.T) {
	// Adding a back edge that closes a path must yield the witness.
	rng := rand.New(rand.NewSource(2))
	g := new(Graph)
	for i := 0; i < 200; i++ {
		n := 3 + rng.Intn(30)
		edges := chain(n)
		// Random forward shortcuts keep it a DAG...
		for j := 0; j < n; j++ {
			if a, b := rng.Intn(n), rng.Intn(n); a < b {
				edges = append(edges, Edge{EventID(a), EventID(b)})
			}
		}
		// ...then one back edge creates exactly one cyclic core.
		back := 1 + rng.Intn(n-1)
		edges = append(edges, Edge{EventID(back), EventID(rng.Intn(back))})
		if cycle := sameAsReference(t, g, edges); cycle == nil {
			t.Fatalf("graph with back edge reported acyclic: %v", edges)
		}
	}
}

// TestTopoMatchesDFSOnRandomGraphs holds one reused Graph to the
// reference on random graphs of every shape the checker can produce and
// some it cannot: duplicates, self-loops, one to four separately sorted
// segments (some empty), sparse and dense, mostly-forward so that cycles
// are long, and sizes that jump between large and small so that every
// kept array is reused both grown and shrunk.
func TestTopoMatchesDFSOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := new(Graph)
	cyclic := 0
	for trial := 0; trial < 600; trial++ {
		n := 1 + rng.Intn(30)
		if trial%7 == 0 {
			n = 150 + rng.Intn(100)
		}
		perm := rng.Perm(n)
		backShare := []int{0, 1, 5, 50}[rng.Intn(4)] // percent of edges left pointing backwards
		segments := make([][]Edge, 1+rng.Intn(4))
		for k := rng.Intn(3 * n); k > 0; k-- {
			seg := &segments[rng.Intn(len(segments))]
			a, b := rng.Intn(n), rng.Intn(n)
			switch {
			case len(*seg) > 0 && rng.Intn(10) == 0:
				e := (*seg)[rng.Intn(len(*seg))] // duplicate
				a, b = int(e.From), int(e.To)
			case a == b && rng.Intn(4) > 0:
				continue // keep self-loops rare: they end the search early
			case perm[a] > perm[b] && rng.Intn(100) >= backShare:
				a, b = b, a
			}
			*seg = append(*seg, Edge{EventID(a), EventID(b)})
		}
		if sameAsReference(t, g, segments...) != nil {
			cyclic++
		}
	}
	if cyclic < 100 || cyclic > 500 {
		t.Fatalf("%d of 600 random graphs cyclic: the generator no longer covers both answers", cyclic)
	}
}
