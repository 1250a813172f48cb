// Package fastpath implements a near-linear-time decision procedure for
// the TSO-like models (SC, TSO, PSO) in the style of Roy et al., "Fast
// and Generalized Polynomial Time Memory Consistency Verification": the
// same candidate execution the exact checker sees is decided without
// building the uniproc constraint graph and without deriving a witness.
//
//   - The uniproc constraint (SC-per-location) collapses to a frontier
//     scan: assign every access a coherence clock — a write's position
//     in its address's co order, a read half a step after its source —
//     and walk each thread's po-loc chain checking the clock never goes
//     backwards. Every communication edge strictly increases the clock
//     and po-loc preserves it, so per-adjacent-pair monotonicity is
//     exactly acyclic(po-loc ∪ rf ∪ co ∪ fr); the rule is complete in
//     both directions, not an approximation.
//   - The GHB constraint is decided by frontier propagation (Kahn
//     waves) over the very graph the exact checker decides
//     (memmodel.GHBGraph: the per-model ppo/fence edges plus rfe,
//     immediate co and immediate fr) on the same engine
//     (relation.Graph). The wavefront is the vector clock: events drain
//     in happens-before order, and a residue means a cycle.
//
// The pass returns Valid, Invalid, or Inconclusive. RMO (and any model
// the clock rules were not audited against) and structurally malformed
// executions are Inconclusive by design: a memmodel.Checker running
// this pass (memmodel.WithFastDecider) falls back to its exact
// procedure for them, and also routes invalid executions through it
// once so the caller receives the canonical witness cycle and Detail.
// Either way the Result handed back is byte-identical to the exact
// checker's — memoization, fleet merging and the service layer cannot
// observe which path decided an execution.
package fastpath

import (
	"fmt"

	"repro/internal/memmodel"
	"repro/internal/relation"
)

// Outcome classifies how the clock pass answered.
type Outcome uint8

const (
	// OutcomeInconclusive means the clock rules do not cover the model
	// or the execution shape; the exact checker decided.
	OutcomeInconclusive Outcome = iota
	// OutcomeValid means the clock pass proved the execution valid.
	OutcomeValid
	// OutcomeInvalid means the clock pass found a violation (the
	// canonical witness still comes from the exact checker).
	OutcomeInvalid
)

func (o Outcome) String() string {
	switch o {
	case OutcomeInconclusive:
		return "inconclusive"
	case OutcomeValid:
		return "valid"
	case OutcomeInvalid:
		return "invalid"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Verdict is the clock pass's own answer: the outcome, and for
// OutcomeInvalid the violated constraint. Conclusive verdicts must
// agree with the exact checker — the differential harness and the
// bench A/B enforce it.
type Verdict struct {
	Outcome Outcome
	Kind    memmodel.ViolationKind
}

// Checker holds the reusable flat scratch of the clock pass. It is
// single-goroutine, like memmodel.Scratch; each recorder owns one.
type Checker struct {
	// frontier is the uniproc scan's latest coherence clock per address
	// slot of the thread being walked.
	frontier memmodel.AddrMarks

	// ghb is the GHB constraint graph, kept for its edge list and
	// search arrays.
	ghb relation.Graph
}

// New returns a ready checker.
func New() *Checker { return &Checker{} }

// Supported reports whether the clock rules decide arch conclusively.
// The set is exactly the models the rules were audited against (SC,
// TSO, PSO — the TSO-like models of Roy et al.); RMO's fence-flavour
// chains fall back to the exact checker.
func Supported(arch memmodel.Arch) bool {
	switch arch.(type) {
	case memmodel.SC, memmodel.TSO, memmodel.PSO:
		return true
	}
	return false
}

// DecideFast implements memmodel.FastDecider: the pure clock pass
// mapped onto the unified checker's outcome vocabulary, so a
// memmodel.NewChecker(memmodel.WithFastDecider(fastpath.New())) decides
// fast-path-first with exact fallback — the configuration
// checker.Recorder runs by default.
func (c *Checker) DecideFast(x *memmodel.Execution, arch memmodel.Arch) memmodel.FastOutcome {
	switch c.Decide(x, arch).Outcome {
	case OutcomeValid:
		return memmodel.FastValid
	case OutcomeInvalid:
		return memmodel.FastInvalid
	default:
		return memmodel.FastFallback
	}
}

// Decide runs the pure clock pass with no fallback. The constraint
// order mirrors the exact checker — structural, uniproc, atomicity,
// GHB — so a conclusive Kind always matches the exact Result's Kind.
func (c *Checker) Decide(x *memmodel.Execution, arch memmodel.Arch) Verdict {
	if !Supported(arch) {
		return Verdict{Outcome: OutcomeInconclusive}
	}
	if x.Validate() != nil {
		return Verdict{Outcome: OutcomeInconclusive, Kind: memmodel.ViolationStructural}
	}
	if !c.uniproc(x) {
		return Verdict{Outcome: OutcomeInvalid, Kind: memmodel.ViolationUniproc}
	}
	if _, ok := memmodel.CheckAtomicity(x); !ok {
		return Verdict{Outcome: OutcomeInvalid, Kind: memmodel.ViolationAtomicity}
	}
	memmodel.GHBGraph(x, arch, &c.ghb)
	if !c.ghb.Acyclic() {
		return Verdict{Outcome: OutcomeInvalid, Kind: memmodel.ViolationGHB}
	}
	return Verdict{Outcome: OutcomeValid}
}

// uniproc checks SC-per-location by frontier monotonicity. Each access
// gets an even/odd-encoded coherence clock — write w ↦ 2·coIndex(w),
// read r ↦ 2·coIndex(rf(r))+1 — under which every rf, co and fr edge
// strictly increases the clock, so acyclic(po-loc ∪ com) holds exactly
// when the clock never decreases along any per-(thread,address) po-loc
// chain. (The odd offset makes a read sit between its source and the
// source's co-successor: a same-clock R→R pair shares a source and is
// legal, while W→R of the same clock means reading a po-earlier value
// and R→W of a lower-or-equal clock means overwriting with the past —
// both flagged.)
func (c *Checker) uniproc(x *memmodel.Execution) bool {
	for _, tid := range x.Threads() {
		c.frontier.Begin(x)
		for _, id := range x.ThreadEvents(tid) {
			e := x.Event(id)
			if e.Kind == memmodel.KindFence {
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
			if prev, ok := c.frontier.Swap(x.AddrSlot(id), pos); ok && pos < prev {
				return false
			}
		}
	}
	return true
}
