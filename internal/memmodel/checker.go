package memmodel

import (
	"fmt"

	"repro/internal/stats"
)

// FastOutcome is a fast decision procedure's answer about one
// execution: decided valid, decided invalid (the canonical witness is
// still re-derived exactly), or fallback (the exact checker decides).
type FastOutcome uint8

const (
	// FastFallback means the fast pass could not decide; the exact
	// checker is the decision procedure.
	FastFallback FastOutcome = iota
	// FastValid means the fast pass proved the execution valid.
	FastValid
	// FastInvalid means the fast pass found a violation; the exact
	// checker re-derives the canonical witness.
	FastInvalid
)

func (o FastOutcome) String() string {
	switch o {
	case FastFallback:
		return "fallback"
	case FastValid:
		return "valid"
	case FastInvalid:
		return "invalid"
	default:
		return fmt.Sprintf("FastOutcome(%d)", uint8(o))
	}
}

// FastDecider is a pluggable fast decision pass for Checker. DecideFast
// must be sound in both conclusive directions: a FastValid or
// FastInvalid answer must agree with the exact checker's verdict for
// the same (execution, arch). The fastpath package's clock-rule checker
// is the bundled implementation; the indirection (rather than a direct
// import) is what lets the fast pass live in a subpackage of memmodel.
type FastDecider interface {
	DecideFast(x *Execution, arch Arch) FastOutcome
}

// Checker is the one way to check an execution. A Checker decides
// executions fast-path-first when a FastDecider is configured, falls
// back to the exact procedure otherwise, and owns its scratch so
// repeated checks reuse allocations. Results are byte-identical across
// every option combination — options change how much work a decision
// costs, never its outcome.
//
// A Checker is single-goroutine, like Scratch; give each worker its
// own (they may share a collective.Memo). A Checker plugs into the
// memo seam through a collective.CheckFunc that decides the execution
// being looked up: memo.Check(sig, arch, decide), where decide returns
// c.Check(x, arch).
type Checker struct {
	scratch *Scratch
	fast    FastDecider
	fstats  stats.Fastpath
	last    FastOutcome
}

// CheckerOption configures a Checker.
type CheckerOption func(*Checker)

// WithFastDecider installs a fast decision pass; without one every
// execution is decided by the exact procedure.
func WithFastDecider(fd FastDecider) CheckerOption {
	return func(c *Checker) { c.fast = fd }
}

// WithScratch gives the Checker s as its exact-check scratch instead of
// the one NewChecker builds.
func WithScratch(s *Scratch) CheckerOption {
	return func(c *Checker) { c.scratch = s }
}

// NewChecker returns a Checker with the given options. The zero
// configuration (no options) checks exactly, in a scratch of its own.
func NewChecker(opts ...CheckerOption) *Checker {
	c := &Checker{}
	for _, o := range opts {
		o(c)
	}
	if c.scratch == nil {
		c.scratch = NewScratch()
	}
	return c
}

// Check decides whether x is valid under arch. With a FastDecider
// configured the fast pass runs first and its outcome is tallied; the
// Result is byte-identical to the exact checker's on every route.
func (c *Checker) Check(x *Execution, arch Arch) Result {
	if c.fast != nil {
		oc := c.fast.DecideFast(x, arch)
		c.fstats.Note(oc == FastValid, oc != FastFallback)
		c.last = oc
		if oc == FastValid {
			return Result{Valid: true}
		}
		// FastInvalid: the violation is terminal for its campaign, so
		// paying one exact check for the canonical cycle and Detail is
		// the same trade the collective memo makes on invalid re-hits.
		// FastFallback: the exact checker is the decision procedure.
	}
	return check(x, arch, c.scratch)
}

// Fastpath returns the fast-pass outcome counters accumulated since
// construction or the last ResetStats (all zero when no FastDecider is
// configured).
func (c *Checker) Fastpath() stats.Fastpath { return c.fstats }

// LastFast returns the fast pass's answer on the most recent Check
// (FastFallback when no FastDecider is configured): how that Check was
// decided.
func (c *Checker) LastFast() FastOutcome { return c.last }

// ResetStats clears the fast-pass outcome counters.
func (c *Checker) ResetStats() { c.fstats = stats.Fastpath{} }
