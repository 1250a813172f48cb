package core

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/gp"
	"repro/internal/host"
	"repro/internal/memsys"
	"repro/internal/scenario"
	"repro/internal/testgen"
)

// TestScenarioSoundness: every registered scenario is self-consistent —
// a bug-free machine realizing the scenario's legal relaxations must
// stay quiet when checked against the scenario's own model. This is the
// cross-model analogue of TestNoFalsePositives: SC cores under SC, the
// Table 2 core under TSO, non-FIFO stores under PSO, squash-free loads
// under RMO.
func TestScenarioSoundness(t *testing.T) {
	for _, scn := range scenario.All() {
		scn := scn
		t.Run(scn.Name, func(t *testing.T) {
			cfg := scaledConfig(GenGPAll, scn.Protocol, "", 1024, 12)
			cfg.Scenario = scn
			cfg.Seed = 99
			res, err := RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Found {
				t.Fatalf("scenario %s false positive: %s / %s", scn.Name, res.Source, res.Detail)
			}
			if res.TestRuns != 12 {
				t.Errorf("TestRuns = %d, want 12", res.TestRuns)
			}
			if res.Scenario != scn.ID() {
				t.Errorf("Result.Scenario = %q, want %q", res.Scenario, scn.ID())
			}
		})
	}
}

// quietAt8KB runs one bug-free campaign of the named scenario with the
// 8 KB layout, in the shape benchmark/README.md's "Known exclusions"
// reproduces with (GP-All, population 24, 256 ops × 8 threads, 5
// iterations), and fails t unless all runs test-runs stay quiet.
func quietAt8KB(t *testing.T, name string, seed int64, runs int) {
	t.Helper()
	scn, err := scenario.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Generator = GenGPAll
	cfg.GP = gp.PaperParams()
	cfg.GP.PopulationSize = 24
	cfg.Coverage = coverage.DefaultParams()
	cfg.Test = testgen.Config{Size: 256, Threads: 8, Layout: memsys.MustLayout(8192, 16)}
	cfg.Host = host.Options{Iterations: 5, Barrier: host.HostBarrier, MaxTicksPerIteration: 30_000_000}
	cfg.MaxTestRuns = runs
	item, err := NewSpec(cfg, []scenario.Scenario{scn}, 1, seed).ItemConfig(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCampaign(item)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found || res.TestRuns != runs {
		t.Errorf("bug-free %s at 8 KB, seed %d: %s / %s after %d test-runs, want %d quiet ones",
			name, seed, res.Source, res.Detail, res.TestRuns, runs)
	}
}

// TestTSOCCQuietAt8KB: bug-free tsocc-tso at 8 KB stays quiet at base
// seed 1. Its L2 evictions used to race owners' writebacks into a line
// re-allocated by the next request: `L2Cache in state IFS on event WB`
// after 26 test-runs.
func TestTSOCCQuietAt8KB(t *testing.T) {
	quietAt8KB(t, "tsocc-tso", 1, 30)
}

// TestMESIQuietAt8KB: bug-free MESI at 8 KB stays quiet for 70 test-runs
// at the base seeds that used to trip `L2Cache in state NP|ISS on event
// Recall_Data` (benchmark/README.md, "Known exclusions" (a)). The L2,
// recalling a line from its owner, took an earlier owner's stale PUT for
// the owner's and dropped the line while the owner held it in M.
func TestMESIQuietAt8KB(t *testing.T) {
	for _, c := range []struct {
		scenario string
		seed     int64
	}{{"mesi-tso", 109}, {"mesi-tso", 219}, {"mesi-pso", 29}, {"mesi-sc", 61}} {
		quietAt8KB(t, c.scenario, c.seed, 70)
	}
}

// TestScenarioBugHunt: injected bugs still manifest under the scenario
// layer — the canonical pipeline bugs on the paper's TSO target, found
// through a scenario-shaped config.
func TestScenarioBugHunt(t *testing.T) {
	scn, err := scenario.ByName("mesi-tso")
	if err != nil {
		t.Fatal(err)
	}
	scn.Bugs = []string{"LQ+no-TSO"}
	cfg := scaledConfig(GenRandom, scn.Protocol, "", 1024, 60)
	cfg.Scenario = scn
	cfg.Seed = 2
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("LQ+no-TSO not found through the scenario layer")
	}
}

// TestDefaultConfigScenario: DefaultConfig carries the paper's target,
// and a scenario is used as given — one without a model is refused, not
// filled in.
func TestDefaultConfigScenario(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Test = testgen.Config{Size: 16, Threads: 8, Layout: memsys.MustLayout(1024, 16)}
	cfg.Host.Iterations = 1
	cfg.MaxTestRuns = 1
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "MESI/TSO" {
		t.Errorf("Result.Scenario = %q, want MESI/TSO", res.Scenario)
	}
	cfg.Scenario = scenario.Scenario{Protocol: "MESI"}
	if err := cfg.Validate(); err == nil {
		t.Error("scenario without a model accepted")
	}
}
