package fleet

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
)

func sweepScenarios(t *testing.T) []scenario.Scenario {
	t.Helper()
	var out []scenario.Scenario
	for _, name := range []string{"mesi-tso", "mesi-pso", "mesi-rmo", "mesi-sc"} {
		s, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// TestScenarioSweepDeterminism: a scenario sweep's results are
// byte-identical at any worker count, with every sample stamped with
// its scenario's identity.
func TestScenarioSweepDeterminism(t *testing.T) {
	scens := sweepScenarios(t)
	cfg := scaledConfig(core.GenRandom, "", 10)
	run := func(workers int) [][]core.Result {
		res, st, err := ScenarioSweep(context.Background(), cfg, scens, 2, 77,
			Options{Workers: workers, Collective: true})
		if err != nil {
			t.Fatal(err)
		}
		if st.Samples != len(scens)*2 {
			t.Fatalf("stats samples = %d, want %d", st.Samples, len(scens)*2)
		}
		if st.Dedupe.Checks == 0 {
			t.Error("sweep did not share a collective memo")
		}
		return res
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("sweep diverges across worker counts:\nseq %+v\npar %+v", seq, par)
	}
	for si, s := range scens {
		for _, r := range seq[si] {
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
	cfg := scaledConfig(core.GenRandom, "", 60)
	res, _, err := ScenarioSweep(context.Background(), cfg, []scenario.Scenario{clean, buggy}, 1, 100,
		Options{Collective: true})
	if err != nil {
		t.Fatal(err)
	}
	if res[0][0].Found {
		t.Fatalf("clean scenario found a bug: %s", res[0][0].Detail)
	}
	if !res[1][0].Found {
		t.Fatal("buggy scenario missed LQ+no-TSO")
	}
}

// TestScenarioSweepObsAndFastpath: a sweep carries the same operator
// telemetry SampleSet does — the fast-path tally always, the phase
// breakdown under Options.Obs — and instrumenting it changes no Result.
func TestScenarioSweepObsAndFastpath(t *testing.T) {
	scens := sweepScenarios(t)[:2]
	cfg := scaledConfig(core.GenRandom, "", 10)
	run := func(on bool) ([][]core.Result, Stats) {
		res, st, err := ScenarioSweep(context.Background(), cfg, scens, 2, 77,
			Options{Collective: true, Obs: on})
		if err != nil {
			t.Fatal(err)
		}
		return res, st
	}
	off, offStats := run(false)
	on, onStats := run(true)
	if !reflect.DeepEqual(off, on) {
		t.Fatalf("Obs changed sweep results:\noff %+v\non  %+v", off, on)
	}
	if !offStats.Obs.Empty() {
		t.Errorf("uninstrumented sweep carries spans: %s", offStats.Obs)
	}
	if sim := onStats.Obs.Phase(obs.PhaseSim); sim.Ns <= 0 || sim.Count == 0 {
		t.Errorf("instrumented sweep reports no sim phase: %s", onStats.Obs)
	}
	for _, st := range []Stats{offStats, onStats} {
		if st.Fastpath.Checks == 0 {
			t.Errorf("sweep reports no fast-path checks: %+v", st.Fastpath)
		}
	}
}
