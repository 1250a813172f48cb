package litmus

import (
	"testing"

	"repro/internal/bugs"
	"repro/internal/machine"
	"repro/internal/memmodel"
)

func suiteCfg(proto machine.Protocol, bug bugs.Set) SuiteConfig {
	cfg := DefaultSuiteConfig()
	cfg.Machine.Protocol = proto
	cfg.Machine.Bugs = bug
	cfg.IterationsPerTest = 5
	cfg.MaxPasses = 6
	return cfg
}

func TestLowerComputesExpectations(t *testing.T) {
	tst := mustMaterialize(t, Cycle{Rfe, PodRR, Fre, PodWW})
	if !Forbidden(tst, memmodel.TSO{}) {
		t.Fatal("MP not forbidden")
	}
	low, err := Lower(tst, 8)
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
	if len(low.FinalExpect) == 0 {
		t.Fatal("no final expectations")
	}
}

// TestSuiteCleanOnFixedMachine: the litmus suite must not fire on a
// bug-free machine.
func TestSuiteCleanOnFixedMachine(t *testing.T) {
	tests := Generate(memmodel.TSO{}, 4, 10)
	if len(tests) == 0 {
		t.Fatal("no tests generated")
	}
	cfg := suiteCfg(machine.MESI, bugs.Set{})
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
	bug, err := bugs.SetFor("LQ+no-TSO")
	if err != nil {
		t.Fatal(err)
	}
	tests := Generate(memmodel.TSO{}, 6, 38)
	found := false
	for _, seed := range []int64{1, 2, 3} {
		res, err := RunSuite(suiteCfg(machine.MESI, bug), tests, seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			t.Logf("found by %s via %s after %d executions", res.TestName, res.Source, res.Executions)
			found = true
			break
		}
	}
	if !found {
		t.Error("LQ+no-TSO not found by litmus suite")
	}
}

// TestSuiteFindsSQNoFIFO: write reordering is litmus-visible (Table 4:
// 9/10 for diy-litmus).
func TestSuiteFindsSQNoFIFO(t *testing.T) {
	bug, err := bugs.SetFor("SQ+no-FIFO")
	if err != nil {
		t.Fatal(err)
	}
	tests := Generate(memmodel.TSO{}, 6, 38)
	found := false
	for _, seed := range []int64{1, 2, 3} {
		res, err := RunSuite(suiteCfg(machine.MESI, bug), tests, seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			found = true
			break
		}
	}
	if !found {
		t.Error("SQ+no-FIFO not found by litmus suite")
	}
}

// TestSuiteMissesReplacementBugs reproduces the Table 4 shape: litmus
// tests use a handful of variables, far too few to trigger capacity
// evictions, so MESI,LQ+S,Replacement stays invisible.
func TestSuiteMissesReplacementBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	bug, err := bugs.SetFor("MESI,LQ+S,Replacement")
	if err != nil {
		t.Fatal(err)
	}
	tests := Generate(memmodel.TSO{}, 6, 38)
	cfg := suiteCfg(machine.MESI, bug)
	cfg.MaxPasses = 3
	res, err := RunSuite(cfg, tests, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Errorf("replacement bug unexpectedly found by litmus: %s", res.Detail)
	}
}
