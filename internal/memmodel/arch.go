package memmodel

import (
	"fmt"
	"strings"

	"repro/internal/relation"
)

// Row is the part of program order a model preserves between accesses:
// a subset of the four pairs R→R, R→W, W→R and W→W. It is the one place
// a model's meaning is written; the checker's ppo edges (GHBGraph) and
// the cores' orderings (package cpu) both read it. The fence semantics
// are the same under every row: a full fence or an atomic orders
// everything, a load-load fence orders R→R, a store-store fence W→W.
type Row uint8

// The four pairs of program-ordered accesses a Row may keep.
const (
	RR Row = 1 << iota // read→read
	RW                 // read→write
	WR                 // write→read
	WW                 // write→write
)

// Keeps reports whether r preserves every pair of p.
func (r Row) Keeps(p Row) bool { return r&p == p }

// valid reports whether r is a row the edge builder is sound for: it
// keeps (x,x) whenever it keeps (x,y). Over two access kinds that also
// makes it transitively closed (R→W→R needs R→R, W→R→W needs W→W).
func valid(r Row) bool {
	return (!r.Keeps(RW) || r.Keeps(RR)) && (!r.Keeps(WR) || r.Keeps(WW))
}

// Arch is an architecture's memory consistency model in the axiomatic
// style: a name and the Row of program order it preserves. The checker
// combines the row's ppo and fence edges with the conflict orders into
// the global-happens-before constraint (GHBGraph). The edges are a
// reachability-equivalent set linear in a thread's length, not the
// O(n²) pair set; with them the exact checker takes 1.7–17.6 % of wall
// time on the workloads measured (EXPERIMENTS.md, "The paper's prose
// claims").
type Arch interface {
	// Name returns the model's name, e.g. "TSO".
	Name() string
	// Row returns the preserved pairs; it must satisfy valid.
	Row() Row
}

// SC is sequential consistency: all of program order is preserved.
type SC struct{}

// TSO is total store order (x86): all of program order is preserved
// except write→read pairs (the store buffer).
type TSO struct{}

// PSO is partial store order (SPARC PSO): TSO with write→write order
// also relaxed.
type PSO struct{}

// RMO is relaxed memory order (SPARC RMO): no program order is
// preserved between plain accesses; ordering exists only through fences
// and atomics. Address dependencies are conservatively treated as
// unordered: the recorded executions carry no dependency edges, which
// can only under-approximate the forbidden set, never flag a legal
// execution.
type RMO struct{}

func (SC) Name() string  { return "SC" }
func (TSO) Name() string { return "TSO" }
func (PSO) Name() string { return "PSO" }
func (RMO) Name() string { return "RMO" }

func (SC) Row() Row  { return RR | RW | WR | WW }
func (TSO) Row() Row { return RR | RW | WW }
func (PSO) Row() Row { return RR | RW }
func (RMO) Row() Row { return 0 }

// models are the bundled models, strongest first in the conventional
// SC ⊃ TSO ⊃ PSO ⊃ RMO chain.
var models = [...]Arch{SC{}, TSO{}, PSO{}, RMO{}}

// Names returns the bundled model names, strongest to weakest.
func Names() []string {
	names := make([]string, len(models))
	for i, a := range models {
		names[i] = a.Name()
	}
	return names
}

// ByName returns the named model, or an error listing the known names.
func ByName(name string) (Arch, error) {
	for _, a := range models {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("memmodel: unknown model %q (known: %s)", name, strings.Join(Names(), ", "))
}

// role is the part an event plays in the two channels of ppoEdges.
type role uint8

const (
	joinsA role = 1 << iota // member of channel A, which orders what follows reads
	joinsB                  // member of channel B, which orders what follows writes
	fromA                   // takes an in-edge from the last member of A
	fromB                   // takes an in-edge from the last member of B
)

// roles are the parts each class of event plays under one row.
type roles struct{ full, read, write, ll, ss role }

// rolesOf returns the roles under row, as ppoEdges describes them.
func rolesOf(row Row) roles {
	rs := roles{full: joinsA | joinsB | fromA | fromB, read: fromA, write: fromB}
	if row.Keeps(RR) {
		rs.read |= joinsA
	} else {
		rs.ll = joinsA | fromA
	}
	if row.Keeps(WW) {
		rs.write |= joinsB
	} else {
		rs.ss = joinsB | fromB
	}
	if row.Keeps(RW) {
		rs.write |= fromA
	}
	if row.Keeps(WR) {
		rs.read |= fromB
	}
	return rs
}

// of returns e's role.
func (rs *roles) of(e *Event) role {
	switch {
	case e.IsFullFence():
		return rs.full
	case e.Kind == KindRead:
		return rs.read
	case e.Kind == KindWrite:
		return rs.write
	case e.Fence == FenceLL:
		return rs.ll
	}
	return rs.ss
}

// ppoEdges appends the preserved-program-order and fence edges of one
// thread (events in program order) under row to g. The edge set is
// reachability-equivalent to the row's ppo ∪ fence orders rather than
// the O(n²) pair set, since the cycle search only needs reachability:
// for a valid row, a path between two accesses exists exactly when the
// row keeps their pair or a fence that orders the pair lies between.
//
// A row keeping both R→W and W→R keeps everything: one chain through
// the thread. Otherwise channel A holds what orders the events after it
// as a read does: full fences, atomics, and reads when R→R is kept or
// else load-load fences. Channel B is the same for writes, with W→W and
// store-store fences. A forward pass links the last member of A to each
// later A member, read, and write when R→W is kept, and the last member
// of B to each later B member, write, and read when W→R is kept. A
// backward pass links each read outside A to the next A member and each
// write outside B to the next B member. Fences of neither channel, which
// the row makes redundant, get no edge.
func ppoEdges(x *Execution, thread []relation.EventID, row Row, g *relation.Graph) {
	if row.Keeps(RW | WR) {
		for i := 1; i < len(thread); i++ {
			g.Add(thread[i-1], thread[i])
		}
		return
	}
	const none relation.EventID = -1
	rs := rolesOf(row)
	lastA, lastB := none, none
	for _, id := range thread {
		r := rs.of(x.Event(id))
		if r&fromA != 0 && lastA != none {
			g.Add(lastA, id)
		}
		if r&fromB != 0 && lastB != none {
			g.Add(lastB, id)
		}
		if r&joinsA != 0 {
			lastA = id
		}
		if r&joinsB != 0 {
			lastB = id
		}
	}
	if row.Keeps(RR | WW) {
		return // every access is a member of its channel
	}
	nextA, nextB := none, none
	for i := len(thread) - 1; i >= 0; i-- {
		id := thread[i]
		e := x.Event(id)
		r := rs.of(e)
		if r&joinsA == 0 && e.Kind == KindRead && nextA != none {
			g.Add(id, nextA)
		}
		if r&joinsB == 0 && e.Kind == KindWrite && nextB != none {
			g.Add(id, nextB)
		}
		if r&joinsA != 0 {
			nextA = id
		}
		if r&joinsB != 0 {
			nextB = id
		}
	}
}
