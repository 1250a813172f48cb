package memmodel

import (
	"fmt"
	"strings"

	"repro/internal/relation"
)

// ViolationKind classifies why an execution is invalid.
type ViolationKind uint8

const (
	// ViolationNone means the execution is valid.
	ViolationNone ViolationKind = iota
	// ViolationUniproc is an SC-per-location (coherence) violation:
	// a cycle in po-loc ∪ rf ∪ co ∪ fr.
	ViolationUniproc
	// ViolationAtomicity is a broken read-modify-write: another write
	// is coherence-ordered between the RMW's read source and its write.
	ViolationAtomicity
	// ViolationGHB is a global-happens-before cycle: a cycle in
	// ppo ∪ fences ∪ rfe ∪ co ∪ fr.
	ViolationGHB
	// ViolationStructural indicates the execution object itself is
	// malformed (missing rf, value mismatch) — in a simulation this
	// indicates corrupted data, itself a bug symptom.
	ViolationStructural
)

func (k ViolationKind) String() string {
	switch k {
	case ViolationNone:
		return "none"
	case ViolationUniproc:
		return "uniproc"
	case ViolationAtomicity:
		return "atomicity"
	case ViolationGHB:
		return "ghb"
	case ViolationStructural:
		return "structural"
	default:
		return fmt.Sprintf("ViolationKind(%d)", uint8(k))
	}
}

// Result is the outcome of checking one candidate execution.
type Result struct {
	// Valid reports whether the execution satisfies the model.
	Valid bool
	// Kind identifies the violated constraint when invalid.
	Kind ViolationKind
	// Cycle is the witness cycle (event IDs) for cyclicity violations.
	Cycle []relation.EventID
	// Detail is a human-readable diagnosis.
	Detail string
}

// Err converts an invalid Result into an error, or nil when valid.
func (r Result) Err() error {
	if r.Valid {
		return nil
	}
	return fmt.Errorf("memmodel: %s violation: %s", r.Kind, r.Detail)
}

// Scratch holds the per-check working state — the constraint graph
// with its edge list and search arrays, and the per-address marks of
// the uniproc scan and the po-loc walk — so repeated checks reuse
// allocations instead of growing them per execution. A Scratch is
// single-use-at-a-time; every Checker owns one, its own unless it was
// built WithScratch, so what a check allocates does not depend on when
// the collector ran.
type Scratch struct {
	graph relation.Graph
	marks AddrMarks
}

// NewScratch returns an empty scratch ready for WithScratch.
func NewScratch() *Scratch { return new(Scratch) }

// check decides whether execution x is valid under arch, using s as
// working state; it is the exact procedure under Checker.Check. The
// procedure is the complete polynomial-time pre-silicon check of §4.1:
// all conflict orders are visible, so each constraint is a cycle search
// over explicit edges, run on the one acyclicity engine
// (relation.Graph) the fast path also decides on — except uniproc,
// which a frontier scan decides without a graph (CheckUniproc). A valid
// execution costs that scan and one Kahn pass over the GHB graph; only
// a violated constraint's graph is sorted and searched for its witness,
// whose identity is a property of the order the relations are appended
// in below (relation.Graph.Cycle).
// The returned Result shares no state with s, so s may be reused
// immediately.
func check(x *Execution, arch Arch, s *Scratch) Result {
	if err := x.Validate(); err != nil {
		return Result{Kind: ViolationStructural, Detail: err.Error()}
	}

	// Constraint 1 — uniproc / SC-per-location:
	// acyclic(po-loc ∪ rf ∪ co ∪ fr). The frontier scan decides it; the
	// graph is built only to name the witness of a violation. The scan
	// is complete in both directions, but the graph is the constraint as
	// written: were it ever acyclic, it is believed and the check goes
	// on.
	g := &s.graph
	if !CheckUniproc(x, &s.marks) {
		x.coreEdges(g)
		x.polocEdges(g, &s.marks)
		g.Cut()
		x.rfEdges(g, false)
		if !g.Acyclic() {
			return cycleViolation(x, ViolationUniproc, g, "po-loc ∪ com")
		}
	}

	// Constraint 2 — RMW atomicity: for the read and write halves of an
	// atomic pair, no other write may be coherence-ordered between the
	// read's source and the write.
	if res, ok := CheckAtomicity(x); !ok {
		return res
	}

	// Constraint 3 — global happens-before:
	// acyclic(ppo ∪ fences ∪ rfe ∪ co ∪ fr).
	GHBGraph(x, arch, g)
	if !g.Acyclic() {
		return cycleViolation(x, ViolationGHB, g, "ghb("+arch.Name()+")")
	}

	return Result{Valid: true}
}

// cycleViolation is the Result of a constraint whose graph g is cyclic.
func cycleViolation(x *Execution, kind ViolationKind, g *relation.Graph, rel string) Result {
	cycle := g.Cycle()
	return Result{Kind: kind, Cycle: cycle, Detail: describeCycle(x, cycle, rel)}
}

// GHBGraph makes g the global-happens-before constraint graph of x
// under arch: the co ∪ fr core, rfe, then the ppo and fence edges of
// every thread, one segment each. The exact procedure and the fast path
// both decide this graph, so the constraint is written down once.
func GHBGraph(x *Execution, arch Arch, g *relation.Graph) {
	x.coreEdges(g)
	x.rfEdges(g, true)
	g.Cut()
	for _, tid := range x.Threads() {
		arch.PPOEdges(x, x.ThreadEvents(tid), g)
	}
}

// CheckUniproc decides SC-per-location — acyclic(po-loc ∪ rf ∪ co ∪ fr)
// — by frontier monotonicity, in the style of Roy et al., "Fast and
// Generalized Polynomial Time Memory Consistency Verification". Each
// access gets an even/odd-encoded coherence clock — write w ↦
// 2·coIndex(w), read r ↦ 2·coIndex(rf(r))+1 — under which every rf, co
// and fr edge strictly increases the clock and po-loc must preserve it,
// so the constraint holds exactly when the clock never decreases along
// any per-(thread, address) po-loc chain; the rule is complete in both
// directions, not an approximation. (The odd offset makes a read sit
// between its source and the source's co-successor: a same-clock R→R
// pair shares a source and is legal, while W→R of the same clock means
// reading a po-earlier value and R→W of a lower-or-equal clock means
// overwriting with the past — both flagged.) x must have passed
// Validate. frontier is working storage the caller keeps: the latest
// clock of the thread being walked, per address slot.
func CheckUniproc(x *Execution, frontier *AddrMarks) bool {
	for _, tid := range x.Threads() {
		frontier.Begin(x)
		for _, id := range x.ThreadEvents(tid) {
			e := x.Event(id)
			if e.Kind == KindFence {
				continue
			}
			var pos int64
			if e.IsWrite() {
				ci, _ := x.COIndex(id)
				pos = 2 * int64(ci)
			} else {
				w, _ := x.RF(id)
				ci, _ := x.COIndex(w)
				pos = 2*int64(ci) + 1
			}
			if prev, ok := frontier.Swap(x.AddrSlot(id), pos); ok && pos < prev {
				return false
			}
		}
	}
	return true
}

// CheckAtomicity verifies every RMW pair; ok is false, with the
// violation's Result, for the first broken one. A pair is the read half
// followed by the write half of the same instruction (same Key.TID and
// Key.Instr, consecutive Sub numbers, both Atomic). It is one
// constraint of the decision procedure, not a verdict: exported so the
// fastpath clock pass and the exact core share the one implementation.
func CheckAtomicity(x *Execution) (Result, bool) {
	for _, tid := range x.Threads() {
		events := x.ThreadEvents(tid)
		for i := 0; i+1 < len(events); i++ {
			r := x.Event(events[i])
			w := x.Event(events[i+1])
			if !r.Atomic || !w.Atomic || !r.IsRead() || !w.IsWrite() {
				continue
			}
			if r.Key.Instr != w.Key.Instr || r.Addr != w.Addr {
				continue
			}
			src, ok := x.RF(r.ID)
			if !ok {
				continue // Validate already rejects this.
			}
			succ, ok := x.COSuccessor(src)
			if !ok || succ != w.ID {
				detail := fmt.Sprintf(
					"RMW %v reads from %v but the next write in co is not its own write half",
					r, x.Event(src))
				return Result{Kind: ViolationAtomicity, Detail: detail}, false
			}
		}
	}
	return Result{}, true
}

func describeCycle(x *Execution, cycle []relation.EventID, rel string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle in %s: ", rel)
	for i, id := range cycle {
		if i > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(x.Event(id).String())
	}
	if len(cycle) > 0 {
		fmt.Fprintf(&b, " -> %s", x.Event(cycle[0]).String())
	}
	return b.String()
}
