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

// TestTSOCCQuietAt8KB: bug-free tsocc-tso with the 8 KB layout, in the
// shape benchmark/README.md's "Known exclusions" reproduces with (GP-All,
// population 24, 256 ops × 8 threads, 5 iterations), stays quiet at base
// seed 1. Its L2 evictions used to race owners' writebacks into a line
// re-allocated by the next request: `L2Cache in state IFS on event WB`
// after 26 test-runs.
func TestTSOCCQuietAt8KB(t *testing.T) {
	scn, err := scenario.ByName("tsocc-tso")
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
	cfg.MaxTestRuns = 30
	item, err := NewSpec(cfg, []scenario.Scenario{scn}, 1, 1).ItemConfig(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCampaign(item)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found || res.TestRuns != 30 {
		t.Fatalf("bug-free tsocc-tso at 8 KB: %s / %s after %d test-runs, want 30 quiet ones", res.Source, res.Detail, res.TestRuns)
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

// TestResolvedScenarioCompatibility: pre-scenario configurations that
// set Machine.Protocol directly still resolve to the paper's target.
func TestResolvedScenarioCompatibility(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machine.Protocol = "TSO-CC"
	s, err := cfg.ResolvedScenario()
	if err != nil {
		t.Fatal(err)
	}
	if s.Protocol != "TSO-CC" || s.Model != "TSO" {
		t.Errorf("resolved %s/%s, want TSO-CC/TSO", s.Protocol, s.Model)
	}
	// An explicit scenario wins over the machine protocol.
	cfg.Scenario = scenario.Scenario{Protocol: "MESI", Model: "PSO", Relax: scenario.RelaxFor("PSO")}
	s, err = cfg.ResolvedScenario()
	if err != nil {
		t.Fatal(err)
	}
	if s.Protocol != "MESI" || s.Model != "PSO" {
		t.Errorf("resolved %s/%s, want MESI/PSO", s.Protocol, s.Model)
	}
}

// TestIncoherentScenarioRejected: a relaxation the model forbids cannot
// build a campaign.
func TestIncoherentScenarioRejected(t *testing.T) {
	cfg := scaledConfig(GenRandom, "MESI", "", 1024, 10)
	cfg.Scenario = scenario.Scenario{Protocol: "MESI", Model: "TSO", Relax: scenario.RelaxFor("PSO")}
	if _, err := NewCampaign(cfg); err == nil {
		t.Error("NonFIFOSB under TSO accepted")
	}
}
