package memmodel

import (
	"fmt"
	"sort"

	"repro/internal/relation"
)

// Arch describes an architecture's memory consistency model in the
// axiomatic style: which part of program order is preserved (ppo), and
// which fence orders exist. The checker combines these with the conflict
// orders into the global-happens-before constraint.
//
// Implementations generate a *reachability-equivalent* edge set rather
// than the full O(n²) ppo pair set: the cycle search only needs
// reachability, so each event links to the nearest later event of each
// kind it orders with. This keeps checking linear in practice, which
// matters because the checker accounts for 30–40% of total wall-clock
// time in the paper's setup (§5.2.1).
type Arch interface {
	// Name returns the model's name, e.g. "TSO".
	Name() string
	// PPOEdges appends the preserved-program-order and fence edges of
	// one thread (events given in program order) to g.
	PPOEdges(x *Execution, thread []relation.EventID, g *relation.Graph)
}

// SC is sequential consistency: ppo = po, nothing is reordered.
type SC struct{}

// Name implements Arch.
func (SC) Name() string { return "SC" }

// PPOEdges implements Arch: under SC every adjacent po pair is preserved,
// and adjacency chains give full reachability.
func (SC) PPOEdges(x *Execution, thread []relation.EventID, g *relation.Graph) {
	for i := 0; i+1 < len(thread); i++ {
		g.Add(thread[i], thread[i+1])
	}
}

// TSO is total store order (x86): all of program order is preserved
// except write→read pairs (the store buffer), and fences (mfence or
// either half of a locked RMW) restore full order.
type TSO struct{}

// Name implements Arch.
func (TSO) Name() string { return "TSO" }

// PPOEdges implements Arch. The generated edge set is reachability-
// equivalent to TSO's ppo ∪ fence:
//
//   - every event links to the next write and the next fence after it
//     (R→W, W→W, F→W and *→F are all preserved);
//   - reads and fences additionally link to the next read
//     (R→R and F→R are preserved; W→R is not, so writes get no edge
//     towards reads and no path from a write can reach a po-later read
//     without passing a fence).
func (TSO) PPOEdges(x *Execution, thread []relation.EventID, g *relation.Graph) {
	// Scan backwards keeping the nearest later event of each class.
	// Only full fences act as ordering points: SS/LL fence events add
	// nothing TSO does not already preserve, and giving them in-edges
	// would fabricate W→R paths through them, so they get none.
	var nextRead, nextWrite, nextFence relation.EventID
	haveRead, haveWrite, haveFence := false, false, false
	for i := len(thread) - 1; i >= 0; i-- {
		id := thread[i]
		e := x.Event(id)
		if e.Kind == KindFence && !e.IsFullFence() {
			continue
		}
		if haveWrite {
			g.Add(id, nextWrite)
		}
		if haveFence {
			g.Add(id, nextFence)
		}
		if haveRead && (e.IsRead() || e.IsFullFence()) {
			g.Add(id, nextRead)
		}
		if e.IsFullFence() {
			// A fence orders with everything after it; later events
			// of all classes are reachable through the fence's own
			// next-read/next-write edges.
			nextFence, haveFence = id, true
		}
		switch e.Kind {
		case KindRead:
			nextRead, haveRead = id, true
		case KindWrite:
			nextWrite, haveWrite = id, true
		}
	}
}

// PSO is partial store order (SPARC PSO): TSO with write→write order
// also relaxed. Preserved program order is R→R and R→W only; full
// fences restore everything and store-store fences restore W→W.
type PSO struct{}

// Name implements Arch.
func (PSO) Name() string { return "PSO" }

// PPOEdges implements Arch. The generated edge set is reachability-
// equivalent to PSO's ppo ∪ fence:
//
//   - reads and full fences form a chain (R→R, R→F, F→R preserved);
//   - each write takes an in-edge from the nearest preceding chain
//     member (R→W, F→W) and from the nearest preceding W-ordering
//     fence (store-store or full, F→W);
//   - W-ordering fences chain among themselves, and a backward pass
//     links each write to the nearest following W-ordering fence, so
//     W …fence… W paths exist exactly when a fence intervenes;
//   - writes get no other out-edges: no path from a write reaches a
//     po-later read or write without passing a fence that orders it.
func (PSO) PPOEdges(x *Execution, thread []relation.EventID, g *relation.Graph) {
	var chainPrev, lastWW relation.EventID
	haveChain, haveWW := false, false
	for _, id := range thread {
		e := x.Event(id)
		chainMember := e.IsRead() || e.IsFullFence()
		wwMember := e.OrdersWW()
		if haveChain && (chainMember || e.IsWrite()) {
			g.Add(chainPrev, id)
		}
		if haveWW && (wwMember || e.IsWrite()) {
			g.Add(lastWW, id)
		}
		if chainMember {
			chainPrev, haveChain = id, true
		}
		if wwMember {
			lastWW, haveWW = id, true
		}
	}
	var nextWW relation.EventID
	haveWW = false
	for i := len(thread) - 1; i >= 0; i-- {
		id := thread[i]
		e := x.Event(id)
		if e.IsWrite() && haveWW {
			g.Add(id, nextWW)
		}
		if e.OrdersWW() {
			nextWW, haveWW = id, true
		}
	}
}

// RMO is relaxed memory order (SPARC RMO): no program order is
// preserved between plain accesses at all — ordering exists only
// through fences (and atomics, which imply full fences). Address
// dependencies are conservatively treated as unordered: the recorded
// executions carry no dependency edges, which can only under-approximate
// the forbidden set, never flag a legal execution.
type RMO struct{}

// Name implements Arch.
func (RMO) Name() string { return "RMO" }

// PPOEdges implements Arch. Reads attach to the R-ordering fences
// around them (load-load or full), writes to the W-ordering fences
// (store-store or full), and each fence class chains among itself, so
// a path between two accesses exists exactly when a fence flavour that
// orders the pair intervenes. The two chains meet only at full fences,
// which belong to both.
func (RMO) PPOEdges(x *Execution, thread []relation.EventID, g *relation.Graph) {
	var lastLL, lastWW relation.EventID
	haveLL, haveWW := false, false
	for _, id := range thread {
		e := x.Event(id)
		llMember := e.OrdersRR()
		wwMember := e.OrdersWW()
		if haveLL && (llMember || e.IsRead()) {
			g.Add(lastLL, id)
		}
		if haveWW && (wwMember || e.IsWrite()) {
			g.Add(lastWW, id)
		}
		if llMember {
			lastLL, haveLL = id, true
		}
		if wwMember {
			lastWW, haveWW = id, true
		}
	}
	var nextLL, nextWW relation.EventID
	haveLL, haveWW = false, false
	for i := len(thread) - 1; i >= 0; i-- {
		id := thread[i]
		e := x.Event(id)
		if e.IsRead() && haveLL {
			g.Add(id, nextLL)
		}
		if e.IsWrite() && haveWW {
			g.Add(id, nextWW)
		}
		if e.OrdersRR() {
			nextLL, haveLL = id, true
		}
		if e.OrdersWW() {
			nextWW, haveWW = id, true
		}
	}
}

// Architectures returns the models bundled with the framework, keyed by
// name, strongest first in the conventional SC ⊃ TSO ⊃ PSO ⊃ RMO chain.
func Architectures() map[string]Arch {
	return map[string]Arch{
		"SC":  SC{},
		"TSO": TSO{},
		"PSO": PSO{},
		"RMO": RMO{},
	}
}

// Names returns the bundled model names, strongest to weakest.
func Names() []string { return []string{"SC", "TSO", "PSO", "RMO"} }

// ByName returns the named model, or an error listing the known names.
func ByName(name string) (Arch, error) {
	if a, ok := Architectures()[name]; ok {
		return a, nil
	}
	known := Names()
	sort.Strings(known)
	return nil, fmt.Errorf("memmodel: unknown model %q (known: %v)", name, known)
}
