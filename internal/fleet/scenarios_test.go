package fleet

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
)

var sweepNames = []string{"mesi-tso", "mesi-pso", "mesi-rmo", "mesi-sc"}

// TestScenarioSweepDeterminism: a scenario sweep's results are
// byte-identical at any worker count, with every sample stamped with
// its scenario's identity.
func TestScenarioSweepDeterminism(t *testing.T) {
	spec := shardSpec(core.GenRandom, 2, 10, 77, sweepNames...)
	run := func(workers int) []core.Result {
		m, err := LocalMerged(context.Background(), spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if m.Stats.Items != len(sweepNames)*2 {
			t.Fatalf("stats items = %d, want %d", m.Stats.Items, len(sweepNames)*2)
		}
		return m.Results
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("sweep diverges across worker counts:\nseq %+v\npar %+v", seq, par)
	}
	for i, r := range seq {
		s := spec.ItemScenario(i)
		if r.Scenario != s.ID() {
			t.Fatalf("result under %s stamped %q", s.Name, r.Scenario)
		}
		if r.TestRuns != 10 {
			t.Fatalf("scenario %s ran %d test-runs, want 10", s.Name, r.TestRuns)
		}
		if r.Found {
			t.Fatalf("bug-free sweep found a bug under %s: %s", s.Name, r.Detail)
		}
	}
}

// findSweep is a two-scenario sweep, the bug-free TSO target and the
// same target with LQ+no-TSO injected.
func findSweep(t *testing.T) []scenario.Scenario {
	t.Helper()
	clean, err := scenario.ByName("mesi-tso")
	if err != nil {
		t.Fatal(err)
	}
	buggy := clean
	buggy.Name = "mesi-tso-lqbug"
	buggy.Bugs = []string{"LQ+no-TSO"}
	return []scenario.Scenario{clean, buggy}
}

// TestScenarioSweepFindsBug: a sweep whose matrix includes a buggy
// scenario reports the find under the right scenario, and the bug-free
// siblings stay quiet.
func TestScenarioSweepFindsBug(t *testing.T) {
	spec := core.NewSpec(scaledConfig(core.GenRandom, "", 60), findSweep(t), 1, 100)
	m, err := LocalMerged(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Results[0].Found {
		t.Fatalf("clean scenario found a bug: %s", m.Results[0].Detail)
	}
	if !m.Results[1].Found {
		t.Fatal("buggy scenario missed LQ+no-TSO")
	}
}

// TestScenarioSweepObsAndFastpath: a sweep carries its operator
// telemetry — the fast-path tally and the phase breakdown.
func TestScenarioSweepObsAndFastpath(t *testing.T) {
	spec := shardSpec(core.GenRandom, 2, 10, 77, sweepNames[:2]...)
	m, err := LocalMerged(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sim := m.Obs.Phase(obs.PhaseSim); sim.Ns <= 0 || sim.Count == 0 {
		t.Errorf("sweep reports no sim phase: %s", m.Obs)
	}
	if m.Fastpath.Checks == 0 {
		t.Errorf("sweep reports no fast-path checks: %+v", m.Fastpath)
	}
}
