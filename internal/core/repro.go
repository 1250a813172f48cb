package core

import (
	"context"
	"fmt"

	"repro/internal/host"
	"repro/internal/testgen"
)

// Reproduction is one test-run of a campaign, re-derived by running the
// campaign again: simulation is deterministic in the campaign's
// configuration, so nothing on the campaign path has to record it.
type Reproduction struct {
	// TestRun is the test-run's 1-based index, Test the test it ran.
	TestRun int
	Test    *testgen.Test
	// Violation is what the test-run exposed (nil when it passed). A
	// checker violation's Err is a *checker.Violation carrying the
	// failing iteration's execution.
	Violation *host.Violation
	// Iterations is how many iterations the test-run executed; a
	// violation ended the last one.
	Iterations int
}

// Reproduce re-runs cfg's campaign through test-run n-1, exactly as it
// ran the first time, then runs test as test-run n — the campaign's own
// n-th test when test is nil — on the machine state the original
// test-run n started from. cfg.Memo is ignored: verdicts are the same
// without one.
func Reproduce(cfg Config, n int, test *testgen.Test) (Reproduction, error) {
	if n < 1 {
		return Reproduction{}, fmt.Errorf("core: reproduce test-run %d: test-runs count from 1", n)
	}
	cfg.Memo = nil
	c, err := NewCampaign(cfg)
	if err != nil {
		return Reproduction{}, err
	}
	defer c.Release()
	// Advance reads a step count of 0 as "no limit", so a find at
	// test-run 1 advances nothing.
	if n > 1 {
		if done, err := c.Advance(context.Background(), n-1); err != nil {
			return Reproduction{}, err
		} else if done || c.out.TestRuns != n-1 {
			return Reproduction{}, fmt.Errorf("core: reproduce test-run %d: the campaign ended after test-run %d", n, c.out.TestRuns)
		}
	}
	if test == nil {
		test = c.nextTest().Clone()
	}
	res, err := c.h.RunTest(test)
	if err != nil {
		c.failed = true
		return Reproduction{}, err
	}
	if res.Violation != nil {
		c.out.Found = true // the machine is not fit for reuse
	}
	return Reproduction{TestRun: n, Test: test, Violation: res.Violation, Iterations: res.Iterations}, nil
}
