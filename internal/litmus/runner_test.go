package litmus

import (
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/memmodel"
	"repro/internal/relation"
	"repro/internal/scenario"
	"repro/internal/testgen"
)

func suiteCfg(proto machine.Protocol, bug string) SuiteConfig {
	return SuiteConfig{Scenario: scenario.ForBug(proto, bug), IterationsPerTest: 5, MaxPasses: 6}
}

func TestLowerComputesExpectations(t *testing.T) {
	tst := mustMaterialize(t, Cycle{Rfe, PodRR, Fre, PodWW})
	if !Forbidden(tst, memmodel.TSO{}) {
		t.Fatal("MP not forbidden")
	}
	low, err := ToTestgen(tst, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(low.Probes) != 2 {
		t.Fatalf("probes = %d", len(low.Probes))
	}
	var nonzero, zero int
	for _, p := range low.Probes {
		if p.ExpectValue == 0 {
			zero++
		} else {
			nonzero++
		}
	}
	if zero != 1 || nonzero != 1 {
		t.Fatalf("MP probe expectations zero=%d nonzero=%d", zero, nonzero)
	}
	// MP writes each location once, so that write is its final value.
	for v, writes := range outcomeCO(t, low) {
		if len(writes) != 1 || low.Final[v] != writes[0] {
			t.Errorf("location %d: final expectation %#x, writes %#x", v, low.Final[v], writes)
		}
	}
}

// recorded builds the execution the recorder assembles from one run of
// low whose reads observed reads[i] (probe i) and whose writes
// serialized per location in co[v] order (write IDs, the last one
// leaving the location's final value). Nil arguments take the forbidden
// outcome's reads and a coherence order ending in its final writes.
func recorded(t *testing.T, low *Lowered, reads []uint64, co [][]uint64) *memmodel.Execution {
	t.Helper()
	if reads == nil {
		for _, p := range low.Probes {
			reads = append(reads, p.ExpectValue)
		}
	}
	if co == nil {
		co = outcomeCO(t, low)
	}
	progs, err := testgen.Compile(low.Test)
	if err != nil {
		t.Fatal(err)
	}
	b := memmodel.NewBuilder()
	ids := map[uint64]relation.EventID{}
	probe := 0
	for tid, p := range progs {
		for i, in := range p {
			key := memmodel.Key{TID: tid, Instr: i}
			switch in.Kind {
			case testgen.OpFence:
				b.FenceKeyed(key, in.Fence)
			case testgen.OpWrite:
				ids[in.WriteID] = b.WriteKeyed(key, in.Addr, in.WriteID, false)
			default:
				b.ReadKeyed(key, in.Addr, reads[probe], false)
				probe++
			}
		}
	}
	for v, order := range co {
		if len(order) == 0 {
			continue
		}
		evs := make([]relation.EventID, len(order))
		for i, w := range order {
			evs[i] = ids[w]
		}
		b.CO(VarAddr(v), evs...)
	}
	x, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// outcomeCO returns, per location, the write IDs of its writes in
// program order, rotated so that the forbidden outcome's final write is
// last.
func outcomeCO(t *testing.T, low *Lowered) [][]uint64 {
	t.Helper()
	progs, err := testgen.Compile(low.Test)
	if err != nil {
		t.Fatal(err)
	}
	co := make([][]uint64, len(low.Final))
	for _, p := range progs {
		for _, in := range p {
			if in.Kind == testgen.OpWrite {
				v := int(in.Addr-VarAddr(0)) / int(VarAddr(1)-VarAddr(0))
				co[v] = append(co[v], in.WriteID)
			}
		}
	}
	for v, order := range co {
		if i := slices.Index(order, low.Final[v]); i >= 0 {
			co[v] = append(slices.Delete(order, i, i+1), low.Final[v])
		}
	}
	return co
}

// TestRealised holds the litmus find's outcome match on MP: its
// forbidden execution realises the outcome, and changing one read's
// value or one location's co-last write does not. The co half runs on
// every suite test with a location written twice (MP writes each once).
func TestRealised(t *testing.T) {
	var sawMP, sawCO bool
	for _, tst := range Suite() {
		low, err := ToTestgen(tst, machine.Cores)
		if err != nil {
			t.Fatal(err)
		}
		if !low.realised(recorded(t, low, nil, nil)) {
			t.Fatalf("%s: forbidden execution not realised", tst.Name)
		}
		sawMP = sawMP || tst.Name == "MP"
		for i, p := range low.Probes {
			reads := make([]uint64, len(low.Probes))
			for j, q := range low.Probes {
				reads[j] = q.ExpectValue
			}
			// Flip the read between the initial value and a write of
			// its location.
			if p.ExpectValue != 0 {
				reads[i] = 0
			} else if w := outcomeCO(t, low)[p.Var]; len(w) > 0 {
				reads[i] = w[0]
			} else {
				continue
			}
			if low.realised(recorded(t, low, reads, nil)) {
				t.Errorf("%s: probe %d observing %#x instead of %#x still realised", tst.Name, i, reads[i], p.ExpectValue)
			}
		}
		for v, order := range outcomeCO(t, low) {
			if len(order) < 2 {
				continue
			}
			sawCO = true
			co := outcomeCO(t, low)
			co[v] = slices.Concat(order[len(order)-1:], order[:len(order)-1])
			if low.realised(recorded(t, low, nil, co)) {
				t.Errorf("%s: location %d ending in %#x instead of %#x still realised", tst.Name, v, co[v][len(co[v])-1], low.Final[v])
			}
		}
	}
	if !sawMP || !sawCO {
		t.Fatalf("suite exercised MP=%v, a two-write location=%v", sawMP, sawCO)
	}
}

// TestForbiddenOutcomeFixesTSOInvalidity holds the find definition: a
// checker violation that realises the outcome is today's "outcome
// observed". For every test of both suites, every coherence order that
// keeps the outcome's reads and each location's co-last write is
// TSO-invalid, so whatever co the machine serialized, an execution that
// realises the outcome is a checker violation. Outside the tests that
// write one location three times, the outcome fixes co outright.
func TestForbiddenOutcomeFixesTSOInvalidity(t *testing.T) {
	chk := memmodel.NewChecker()
	var threeWrites []string
	for _, tests := range [][]*Test{Suite(), Generate(memmodel.TSO{}, 4, 10)} {
		for _, tst := range tests {
			low, err := ToTestgen(tst, machine.Cores)
			if err != nil {
				t.Fatal(err)
			}
			base := outcomeCO(t, low)
			// Each location's candidate orders: permutations of all but
			// its last write, which stays last.
			cands := make([][][]uint64, len(base))
			three := false
			for v, order := range base {
				three = three || len(order) >= 3
				if len(order) == 0 {
					cands[v] = [][]uint64{nil}
					continue
				}
				last := order[len(order)-1]
				for _, perm := range permutations(order[:len(order)-1]) {
					cands[v] = append(cands[v], append(perm, last))
				}
			}
			if three && !slices.Contains(threeWrites, tst.Name) {
				threeWrites = append(threeWrites, tst.Name)
			}
			orders := 0
			for co := range product(cands) {
				orders++
				if res := chk.Check(recorded(t, low, nil, co), memmodel.TSO{}); res.Valid {
					t.Errorf("%s: co %#x keeps the outcome but is TSO-valid", tst.Name, co)
				}
			}
			if three {
				t.Logf("%s: %d coherence orders, all TSO-invalid", tst.Name, orders)
			}
		}
	}
	want := []string{
		"Wse PodWR PodRW Wse",
		"Wse PodWW PodWW Wse",
		"Wse MFencedWR PodRW Wse",
		"Fre Wse PodWR PodRW Rfe",
		"Fre Wse PodWW PodWW Rfe",
		"Fre Wse MFencedWR PodRW Rfe",
		"Rfe Fre PodWR PodRW Wse",
		"Rfe Fre PodWW PodWW Wse",
	}
	if !slices.Equal(threeWrites, want) {
		t.Errorf("tests writing one location three times: %q, want %q", threeWrites, want)
	}
}

// permutations returns every ordering of s.
func permutations(s []uint64) [][]uint64 {
	if len(s) <= 1 {
		return [][]uint64{slices.Clone(s)}
	}
	var out [][]uint64
	for i := range s {
		rest := append(slices.Clone(s[:i]), s[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]uint64{s[i]}, p...))
		}
	}
	return out
}

// product yields every choice of one candidate per location.
func product(cands [][][]uint64) func(func([][]uint64) bool) {
	return func(yield func([][]uint64) bool) {
		pick := make([][]uint64, len(cands))
		var rec func(v int) bool
		rec = func(v int) bool {
			if v == len(cands) {
				return yield(slices.Clone(pick))
			}
			for _, c := range cands[v] {
				pick[v] = c
				if !rec(v + 1) {
					return false
				}
			}
			return true
		}
		rec(0)
	}
}

// TestSuiteCleanOnFixedMachine: the litmus suite must not fire on a
// bug-free machine.
func TestSuiteCleanOnFixedMachine(t *testing.T) {
	tests := Generate(memmodel.TSO{}, 4, 10)
	if len(tests) == 0 {
		t.Fatal("no tests generated")
	}
	cfg := suiteCfg(machine.MESI, "")
	cfg.MaxPasses = 2
	res, err := RunSuite(cfg, tests, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("false positive: %s / %s", res.TestName, res.Detail)
	}
	if res.Executions == 0 {
		t.Fatal("no executions")
	}
}

// TestSuiteFindsLQNoTSO: the paper's Table 4 shows diy-litmus finds
// LQ+no-TSO consistently (10/10); our suite must too.
func TestSuiteFindsLQNoTSO(t *testing.T) {
	testSuiteFinds(t, "LQ+no-TSO")
}

// TestSuiteFindsSQNoFIFO: write reordering is litmus-visible (Table 4:
// 9/10 for diy-litmus).
func TestSuiteFindsSQNoFIFO(t *testing.T) {
	testSuiteFinds(t, "SQ+no-FIFO")
}

// testSuiteFinds wants the suite to observe a forbidden outcome of the
// bug on MESI at one of seeds 1–3.
func testSuiteFinds(t *testing.T, bug string) {
	tests := Suite()
	for _, seed := range []int64{1, 2, 3} {
		res, err := RunSuite(suiteCfg(machine.MESI, bug), tests, seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			t.Logf("found by %s via %s after %d executions", res.TestName, res.Source, res.Executions)
			if res.Source != "forbidden-outcome" {
				t.Errorf("%s found via %s, want forbidden-outcome: %s", bug, res.Source, res.Detail)
			}
			return
		}
	}
	t.Errorf("%s not found by litmus suite", bug)
}

// TestSuiteMissesReplacementBugs reproduces the Table 4 shape: litmus
// tests use a handful of variables, far too few to trigger capacity
// evictions, so MESI,LQ+S,Replacement stays invisible.
func TestSuiteMissesReplacementBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	cfg := suiteCfg(machine.MESI, "MESI,LQ+S,Replacement")
	cfg.MaxPasses = 3
	res, err := RunSuite(cfg, Suite(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Errorf("replacement bug unexpectedly found by litmus: %s", res.Detail)
	}
}

// TestRunSuiteRejectsScenarios: the suite and its recorder are TSO's,
// and the scenario must validate.
func TestRunSuiteRejectsScenarios(t *testing.T) {
	tests := Generate(memmodel.TSO{}, 4, 2)
	for _, s := range []scenario.Scenario{
		{Protocol: machine.MESI, Model: "PSO"},
		scenario.ForBug(machine.MESI, "no-such-bug"),
		scenario.ForBug(machine.MESI, "TSO-CC+compare"),
	} {
		cfg := SuiteConfig{Scenario: s, IterationsPerTest: 1, MaxPasses: 1}
		if _, err := RunSuite(cfg, tests, 1); err == nil {
			t.Errorf("scenario %s accepted", s)
		}
	}
}
