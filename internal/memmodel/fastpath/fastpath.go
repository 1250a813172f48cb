// Package fastpath implements a near-linear-time decision procedure for
// the TSO-like models (SC, TSO, PSO) in the style of Roy et al., "Fast
// and Generalized Polynomial Time Memory Consistency Verification": the
// same candidate execution the exact checker sees is decided without
// deriving a witness.
//
//   - The uniproc constraint (SC-per-location) is the frontier scan the
//     exact checker also decides by (memmodel.CheckUniproc): a coherence
//     clock per access that must never go backwards along a thread's
//     po-loc chain.
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
// agree with the exact checker — the differential harness enforces it.
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
	if !memmodel.CheckUniproc(x, &c.frontier) {
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
