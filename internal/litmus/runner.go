package litmus

import (
	"fmt"

	"repro/internal/checker"
	"repro/internal/host"
	"repro/internal/machine"
	"repro/internal/memmodel"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Suite returns the x86-TSO conformance suite: 38 tests, diy's count
// for TSO (§5.2.2).
func Suite() []*Test { return Generate(memmodel.TSO{}, 6, 38) }

// SuiteResult reports the outcome of a litmus campaign.
type SuiteResult struct {
	// Found reports whether any test observed its forbidden outcome
	// (or the run died on a protocol error / deadlock).
	Found bool
	// TestName is the detecting test.
	TestName string
	// Source classifies the detection channel.
	Source string
	// Detail is a diagnosis.
	Detail string
	// Passes is the number of completed whole-suite passes.
	Passes int
	// Executions is the total litmus executions performed.
	Executions int
	// SimTicks is the simulated time consumed.
	SimTicks sim.Tick
}

// SuiteConfig parameterizes a litmus campaign (§5.2.2: all generated
// tests run in an outer loop until the time limit).
type SuiteConfig struct {
	// Scenario is the machine the suite runs on; it must be checked
	// against TSO (mesi-tso or tsocc-tso, with any bug injected).
	Scenario scenario.Scenario
	// IterationsPerTest is how many times each litmus test executes
	// per pass (diy's -r/-s scaled down).
	IterationsPerTest int
	// MaxPasses bounds the outer loop (the 24h limit, scaled).
	MaxPasses int
}

// DefaultSuiteConfig returns a scaled-down campaign configuration on
// the paper's scenario.
func DefaultSuiteConfig() SuiteConfig {
	return SuiteConfig{
		Scenario:          scenario.Default(),
		IterationsPerTest: 10,
		MaxPasses:         20,
	}
}

// RunSuite executes the litmus tests repeatedly until a forbidden
// outcome is observed or the pass budget is exhausted. Every execution
// is one single-iteration test-run of the host, so a find is what the
// host reports: a protocol error, a watchdog, or a TSO checker
// violation. Litmus tests are self-checking (§5.2.2), so a checker
// violation counts only when its execution realises the test's
// forbidden outcome: every probed read observes its expected value and
// every location's coherence-last write is the expected one.
func RunSuite(cfg SuiteConfig, tests []*Test, seed int64) (SuiteResult, error) {
	if cfg.Scenario.Model != "TSO" {
		return SuiteResult{}, fmt.Errorf("litmus: the suite is checked against TSO, not %s", cfg.Scenario.Model)
	}
	mcfg, err := cfg.Scenario.Apply()
	if err != nil {
		return SuiteResult{}, err
	}
	mcfg.Seed = seed
	rec := checker.NewRecorder(memmodel.TSO{})
	trap := host.NewErrorTrap()
	m, err := machine.New(mcfg, nil, trap, rec)
	if err != nil {
		return SuiteResult{}, err
	}
	opts := host.DefaultOptions()
	opts.Iterations = 1
	h := host.New(m, rec, trap, opts)

	lowered := make([]*Lowered, 0, len(tests))
	for _, t := range tests {
		low, err := ToTestgen(t, machine.Cores)
		if err != nil {
			return SuiteResult{}, err
		}
		lowered = append(lowered, low)
	}

	var res SuiteResult
	for pass := 0; pass < cfg.MaxPasses; pass++ {
		for _, low := range lowered {
			for iter := 0; iter < cfg.IterationsPerTest; iter++ {
				run, err := h.RunTest(low.Test)
				if err != nil {
					return res, err
				}
				res.Executions++
				v := run.Violation
				if v == nil {
					continue
				}
				source, detail := v.Source.String(), v.Err.Error()
				if v.Source == host.SourceChecker {
					if !low.realised(v.Err.(*checker.Violation).Exec) {
						continue
					}
					source = "forbidden-outcome"
					detail = fmt.Sprintf("test %s observed its forbidden outcome (pass %d, iteration %d)",
						low.Source.Name, pass, iter)
				}
				res.Found, res.TestName, res.Source, res.Detail = true, low.Source.Name, source, detail
				res.SimTicks = m.Sim.Now()
				return res, nil
			}
		}
		res.Passes = pass + 1
	}
	res.SimTicks = m.Sim.Now()
	return res, nil
}

// realised reports whether x, the execution of one run of the lowered
// test, realises its forbidden outcome: every probed read observes its
// expected value and every location's coherence-last write stores the
// expected one.
func (low *Lowered) realised(x *memmodel.Execution) bool {
	for _, p := range low.Probes {
		if got, ok := readValue(x, p.Thread, p.Instr); !ok || got != p.ExpectValue {
			return false
		}
	}
	for v, want := range low.Final {
		var got uint64 // a location no write reached holds its initial value
		if co := x.CO(VarAddr(v)); len(co) > 0 {
			got = x.Event(co[len(co)-1]).Value
		}
		if got != want {
			return false
		}
	}
	return true
}

// readValue returns the value the read at (tid, instr) observed in x.
func readValue(x *memmodel.Execution, tid, instr int) (uint64, bool) {
	for _, id := range x.ThreadEvents(tid) {
		if ev := x.Event(id); ev.Key.Instr == instr && ev.IsRead() {
			return ev.Value, true
		}
	}
	return 0, false
}
