package relation

// Topo is an incremental acyclicity engine: it maintains a topological
// order of a growing directed graph under edge insertions (Pearce &
// Kelly, "A Dynamic Topological Sort Algorithm for Directed Acyclic
// Graphs", JEA 2007). Inserting an edge that respects the current order
// costs O(1); an order-violating insertion reorders only the affected
// region between the two endpoints instead of re-running a full DFS,
// and an insertion that would close a cycle is detected immediately
// with a concrete witness.
//
// The checker uses one engine per constraint graph and Clone to reuse
// the sorted state of the shared co ∪ fr core between the uniproc and
// GHB constraints (MTraceCheck-style sort-state reuse): the shared
// edges are ordered once, and each constraint only pays for its own
// additional edges.
//
// The zero value is ready for use.
type Topo struct {
	succ, pred [][]EventID
	ord        []int // node -> position in the maintained topological order
	seen       []bool
	edges      int
	// sorted is AddRelation's edge buffer, kept from call to call.
	sorted []Edge
}

// NewTopo returns an empty engine with capacity hints for n nodes.
func NewTopo(n int) *Topo {
	return &Topo{
		succ: make([][]EventID, 0, n),
		pred: make([][]EventID, 0, n),
		ord:  make([]int, 0, n),
		seen: make([]bool, 0, n),
	}
}

// Len returns the number of inserted edges.
func (t *Topo) Len() int { return t.edges }

// ensure registers id, assigning new nodes the next (maximal) order
// position. Extending within capacity revives the adjacency backing
// arrays a Reset left behind instead of allocating fresh ones.
func (t *Topo) ensure(id EventID) {
	for int(id) >= len(t.ord) {
		n := len(t.ord)
		if n < cap(t.succ) && n < cap(t.pred) {
			t.succ = t.succ[:n+1]
			t.succ[n] = t.succ[n][:0]
			t.pred = t.pred[:n+1]
			t.pred[n] = t.pred[n][:0]
		} else {
			t.succ = append(t.succ, nil)
			t.pred = append(t.pred, nil)
		}
		t.ord = append(t.ord, n)
		t.seen = append(t.seen, false)
	}
}

// Reset empties the engine for reuse, keeping every allocated backing
// array — including each node's adjacency lists, which ensure revives
// on re-registration — so a pooled engine stops allocating once it has
// seen its working set.
func (t *Topo) Reset() {
	for i := range t.succ {
		t.succ[i] = t.succ[i][:0]
		t.pred[i] = t.pred[i][:0]
	}
	t.succ = t.succ[:0]
	t.pred = t.pred[:0]
	t.ord = t.ord[:0]
	t.seen = t.seen[:0]
	t.edges = 0
}

// CopyFrom makes t an independent copy of src, reusing t's backing
// arrays — the pooled-scratch variant of Clone.
func (t *Topo) CopyFrom(src *Topo) {
	t.Reset()
	n := len(src.ord)
	if n == 0 {
		return
	}
	t.ensure(EventID(n - 1))
	for i := 0; i < n; i++ {
		t.succ[i] = append(t.succ[i], src.succ[i]...)
		t.pred[i] = append(t.pred[i], src.pred[i]...)
		t.ord[i] = src.ord[i]
	}
	t.edges = src.edges
}

// Clone returns an independent deep copy sharing no state, so a base
// graph's sort state can seed several constraint checks.
func (t *Topo) Clone() *Topo {
	c := &Topo{
		succ:  make([][]EventID, len(t.succ)),
		pred:  make([][]EventID, len(t.pred)),
		ord:   append([]int(nil), t.ord...),
		seen:  make([]bool, len(t.seen)),
		edges: t.edges,
	}
	for i := range t.succ {
		c.succ[i] = append([]EventID(nil), t.succ[i]...)
		c.pred[i] = append([]EventID(nil), t.pred[i]...)
	}
	return c
}

// AddEdge inserts the edge (from, to), maintaining the topological
// order. If the insertion would create a cycle, the edge is not added
// and the witness is returned with ok=false: a sequence e0, e1, ..., ek
// where each consecutive pair is an existing edge and (ek, e0) is the
// rejected insertion — the same shape Relation.AcyclicCheck reports.
// Duplicate insertions are ignored.
func (t *Topo) AddEdge(from, to EventID) (cycle []EventID, ok bool) {
	if from == to {
		return []EventID{from}, false
	}
	t.ensure(from)
	t.ensure(to)
	for _, s := range t.succ[from] {
		if s == to {
			return nil, true
		}
	}
	if t.ord[from] < t.ord[to] {
		t.succ[from] = append(t.succ[from], to)
		t.pred[to] = append(t.pred[to], from)
		t.edges++
		return nil, true
	}
	// The insertion violates the current order: discover the affected
	// region AR = [ord[to], ord[from]] and reorder it.
	lb, ub := t.ord[to], t.ord[from]

	// Forward search from `to` restricted to AR. Reaching `from` means
	// a to→…→from path exists, so (from, to) closes a cycle.
	parent := map[EventID]EventID{}
	deltaF := []EventID{to}
	t.seen[to] = true
	for head := 0; head < len(deltaF); head++ {
		n := deltaF[head]
		for _, s := range t.succ[n] {
			if t.seen[s] || t.ord[s] > ub {
				continue
			}
			if s == from {
				// Witness: to → … → n → from, closed by (from, to).
				cyc := []EventID{from, n}
				for p := n; p != to; {
					p = parent[p]
					cyc = append(cyc, p)
				}
				// Built back-to-front from `from`; reverse to the
				// e0..ek convention starting at `to`.
				for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
					cyc[i], cyc[j] = cyc[j], cyc[i]
				}
				for _, d := range deltaF {
					t.seen[d] = false
				}
				return cyc, false
			}
			t.seen[s] = true
			parent[s] = n
			deltaF = append(deltaF, s)
		}
	}
	for _, d := range deltaF {
		t.seen[d] = false
	}

	// Backward search from `from` restricted to AR.
	deltaB := []EventID{from}
	t.seen[from] = true
	for head := 0; head < len(deltaB); head++ {
		n := deltaB[head]
		for _, p := range t.pred[n] {
			if !t.seen[p] && t.ord[p] >= lb {
				t.seen[p] = true
				deltaB = append(deltaB, p)
			}
		}
	}
	for _, d := range deltaB {
		t.seen[d] = false
	}

	// Reorder: everything reaching `from` must precede everything
	// reachable from `to`. Pool the affected positions and hand them
	// back, deltaB first, preserving each set's internal order.
	t.reorder(deltaB, deltaF)

	t.succ[from] = append(t.succ[from], to)
	t.pred[to] = append(t.pred[to], from)
	t.edges++
	return nil, true
}

// reorder assigns the union of deltaB and deltaF's order positions back
// to the nodes so that all of deltaB precedes all of deltaF, keeping
// each set's relative order (the Pearce–Kelly reassignment).
func (t *Topo) reorder(deltaB, deltaF []EventID) {
	sortByOrd(t.ord, deltaB)
	sortByOrd(t.ord, deltaF)
	pool := make([]int, 0, len(deltaB)+len(deltaF))
	for _, n := range deltaB {
		pool = append(pool, t.ord[n])
	}
	for _, n := range deltaF {
		pool = append(pool, t.ord[n])
	}
	// pool is the concatenation of two sorted runs; merge in place.
	sortInts(pool)
	k := 0
	for _, n := range deltaB {
		t.ord[n] = pool[k]
		k++
	}
	for _, n := range deltaF {
		t.ord[n] = pool[k]
		k++
	}
}

// sortByOrd sorts ids ascending by their current order position.
// Insertion sort: affected regions are small in practice.
func sortByOrd(ord []int, ids []EventID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ord[ids[j]] < ord[ids[j-1]]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// AddRelation inserts every edge of r in deterministic (sorted) order,
// returning the first cycle found, if any. On a cycle the offending
// edge is not added and the remaining edges are not attempted.
func (t *Topo) AddRelation(r *Relation) (cycle []EventID, ok bool) {
	t.sorted = r.AppendEdges(t.sorted[:0])
	for _, e := range t.sorted {
		if cycle, ok := t.AddEdge(e.From, e.To); !ok {
			return cycle, false
		}
	}
	return nil, true
}

// Order returns node id's position in the maintained topological order
// (for tests; unregistered nodes report -1).
func (t *Topo) Order(id EventID) int {
	if int(id) >= len(t.ord) {
		return -1
	}
	return t.ord[id]
}
