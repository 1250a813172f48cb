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

// TestScenarioSweepFindsBug: a sweep whose matrix includes a buggy
// scenario reports the find under the right scenario, and the bug-free
// siblings stay quiet.
func TestScenarioSweepFindsBug(t *testing.T) {
	clean, err := scenario.ByName("mesi-tso")
	if err != nil {
		t.Fatal(err)
	}
	buggy := clean
	buggy.Name = "mesi-tso-lqbug"
	buggy.Bugs = []string{"LQ+no-TSO"}
	spec := core.NewSpec(scaledConfig(core.GenRandom, "", 60), []scenario.Scenario{clean, buggy}, 1, 100)
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
// telemetry — the fast-path tally always, the phase breakdown under
// Options.Obs — and instrumenting it changes no Result.
func TestScenarioSweepObsAndFastpath(t *testing.T) {
	spec := shardSpec(core.GenRandom, 2, 10, 77, sweepNames[:2]...)
	run := func(on bool) Merged {
		m, err := LocalMerged(context.Background(), spec, Options{Obs: on})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	off, on := run(false), run(true)
	if !reflect.DeepEqual(off.Results, on.Results) {
		t.Fatalf("Obs changed sweep results:\noff %+v\non  %+v", off.Results, on.Results)
	}
	if !off.Obs.Empty() {
		t.Errorf("uninstrumented sweep carries spans: %s", off.Obs)
	}
	if sim := on.Obs.Phase(obs.PhaseSim); sim.Ns <= 0 || sim.Count == 0 {
		t.Errorf("instrumented sweep reports no sim phase: %s", on.Obs)
	}
	for _, m := range []Merged{off, on} {
		if m.Fastpath.Checks == 0 {
			t.Errorf("sweep reports no fast-path checks: %+v", m.Fastpath)
		}
	}
}
