package litmus

import (
	"fmt"

	"repro/internal/checker"
	"repro/internal/host"
	"repro/internal/machine"
	"repro/internal/memmodel"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/testgen"
)

// Lowered is a litmus test compiled for the machine, with the outcome-
// matching data: per-read expected values and the expected final value
// per location (both in terms of the unique write IDs the compiled
// program stores).
type Lowered struct {
	Source *Test
	Test   *testgen.Test
	Probes []ReadProbe
	// FinalExpect maps each location's word address to the write ID
	// the coherence-last write must leave under the forbidden outcome.
	FinalExpect map[memsys.Addr]uint64
}

// Lower compiles a litmus test for a machine with the given thread
// count and computes the outcome expectations.
func Lower(t *Test, threads int) (*Lowered, error) {
	tst, probes, err := ToTestgen(t, threads)
	if err != nil {
		return nil, err
	}
	// Map each litmus write (thread, litmus index) to its compiled
	// program index, to compute write IDs.
	progs, err := testgen.Compile(tst)
	if err != nil {
		return nil, err
	}
	// The compiled instruction order per thread follows the node
	// order; litmus writes appear at the probe-style indices computed
	// during lowering. Rebuild the mapping by re-walking the threads.
	writeID := map[[2]int]uint64{} // (thread, litmus index) -> write ID
	idx := make([]int, threads)
	for ti, evs := range t.Threads {
		for _, ev := range evs {
			if ev.FenceBefore {
				idx[ti]++ // the fence RMW
			}
			if ev.IsWrite {
				writeID[[2]int{ti, ev.Index}] = progs[ti][idx[ti]].WriteID
			}
			idx[ti]++
		}
	}
	low := &Lowered{
		Source:      t,
		Test:        tst,
		Probes:      probes,
		FinalExpect: map[memsys.Addr]uint64{},
	}
	for i := range low.Probes {
		p := &low.Probes[i]
		if p.ExpectInit {
			p.ExpectValue = 0
		} else if p.ExpectWriter.Valid {
			p.ExpectValue = writeID[[2]int{p.ExpectWriter.Thread, p.ExpectWriter.Index}]
		}
	}
	// Final values: find the write carrying each location's final
	// litmus value.
	for v, val := range t.FinalWrites {
		for ti, evs := range t.Threads {
			for _, ev := range evs {
				if ev.IsWrite && ev.Var == v && ev.Val == val {
					low.FinalExpect[VarAddr(v)] = writeID[[2]int{ti, ev.Index}]
				}
			}
		}
	}
	return low, nil
}

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
	Machine machine.Config
	// IterationsPerTest is how many times each litmus test executes
	// per pass (diy's -r/-s scaled down).
	IterationsPerTest int
	// MaxPasses bounds the outer loop (the 24h limit, scaled).
	MaxPasses int
}

// DefaultSuiteConfig returns a scaled-down campaign configuration.
func DefaultSuiteConfig() SuiteConfig {
	return SuiteConfig{
		Machine:           machine.DefaultConfig(),
		IterationsPerTest: 10,
		MaxPasses:         20,
	}
}

// RunSuite executes the litmus tests repeatedly until a forbidden
// outcome is observed or the pass budget is exhausted. Litmus tests are
// self-checking (§5.2.2): detection compares committed read values and
// final memory values against the forbidden outcome; the white-box MCM
// checker is deliberately not consulted.
func RunSuite(cfg SuiteConfig, tests []*Test, seed int64) (SuiteResult, error) {
	mcfg := cfg.Machine
	mcfg.Seed = seed
	rec := checker.NewRecorder(memmodel.TSO{})
	trap := host.NewErrorTrap()
	m, err := machine.New(mcfg, nil, trap, rec)
	if err != nil {
		return SuiteResult{}, err
	}

	lowered := make([]*Lowered, 0, len(tests))
	for _, t := range tests {
		low, err := Lower(t, machine.Cores)
		if err != nil {
			return SuiteResult{}, err
		}
		lowered = append(lowered, low)
	}

	var res SuiteResult
	rng := m.Sim.Rand()
	watchdog := host.DefaultOptions().MaxTicksPerIteration

	resetMem := func(low *Lowered) {
		m.ResetCaches()
		for v := 0; v < low.Source.NumVars; v++ {
			m.Mem.WriteWord(VarAddr(v), 0)
		}
		for ti := range low.Source.Threads {
			m.Mem.WriteWord(ScratchAddr(ti), 0)
		}
	}

	for pass := 0; pass < cfg.MaxPasses; pass++ {
		for _, low := range lowered {
			progs, err := testgen.Compile(low.Test)
			if err != nil {
				return res, err
			}
			rec.ResetAll()
			resetMem(low)
			for iter := 0; iter < cfg.IterationsPerTest; iter++ {
				if err := m.LoadPrograms(progs); err != nil {
					return res, err
				}
				offs := make([]sim.Tick, machine.Cores)
				for i := range offs {
					offs[i] = sim.Tick(rng.Int63n(5))
				}
				runErr := m.RunPrograms(offs, watchdog)
				if runErr == nil {
					m.Quiesce()
				}
				res.Executions++
				if perr := trap.ProtoErr(); perr != nil {
					res.Found = true
					res.TestName = low.Source.Name
					res.Source = "protocol-error"
					res.Detail = perr.Error()
					res.SimTicks = m.Sim.Now()
					return res, nil
				}
				if runErr != nil {
					res.Found = true
					res.TestName = low.Source.Name
					res.Source = "deadlock"
					res.Detail = runErr.Error()
					res.SimTicks = m.Sim.Now()
					return res, nil
				}
				if matchOutcome(low, rec, m) {
					res.Found = true
					res.TestName = low.Source.Name
					res.Source = "forbidden-outcome"
					res.Detail = fmt.Sprintf("test %s observed its forbidden outcome (pass %d, iteration %d)",
						low.Source.Name, pass, iter)
					res.SimTicks = m.Sim.Now()
					return res, nil
				}
				// Self-checking only: the checker verdict is ignored.
				rec.EndIteration()
				resetMem(low)
			}
		}
		res.Passes = pass + 1
	}
	res.SimTicks = m.Sim.Now()
	return res, nil
}

// matchOutcome reports whether the just-finished iteration realized the
// forbidden outcome: every read probe observed its expected value and
// every location's final value matches. Final values are taken from the
// recorder's serialization log (equivalent to reading memory back after
// a full flush).
func matchOutcome(low *Lowered, rec *checker.Recorder, m *machine.Machine) bool {
	for _, p := range low.Probes {
		got, ok := rec.ReadValue(p.Thread, p.Instr, 0)
		if !ok || got != p.ExpectValue {
			return false
		}
	}
	for addr, want := range low.FinalExpect {
		got, ok := rec.LastSerializedValue(addr)
		if !ok {
			got = m.Mem.ReadWord(addr)
		}
		if got != want {
			return false
		}
	}
	return true
}
