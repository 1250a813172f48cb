package mcversi

import (
	"context"
	"testing"
)

// bugScenario is the paper's MESI/TSO target with one bug injected.
func bugScenario(bug string) Scenario {
	s := DefaultScenario()
	s.Bugs = []string{bug}
	return s
}

func TestBugRegistryExposed(t *testing.T) {
	if len(Bugs()) != 11 || len(BugNames()) != 11 {
		t.Fatalf("public bug registry has %d/%d entries, want 11", len(Bugs()), len(BugNames()))
	}
}

func TestNewCampaignConfigPaperScale(t *testing.T) {
	cfg := NewScenarioCampaignConfig(GenGPAll, bugScenario("LQ+no-TSO"))
	if cfg.Test.Size != 1000 {
		t.Errorf("test size = %d, want 1000 (Table 3)", cfg.Test.Size)
	}
	if cfg.Host.Iterations != 10 {
		t.Errorf("iterations = %d, want 10 (Table 3)", cfg.Host.Iterations)
	}
	if cfg.GP.PopulationSize != 100 {
		t.Errorf("population = %d, want 100 (Table 3)", cfg.GP.PopulationSize)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("paper-scale config invalid: %v", err)
	}
}

func TestScaledCampaignRunEndToEnd(t *testing.T) {
	cfg := ScaledScenarioConfig(GenRandom, bugScenario("LQ+no-TSO"), 1024)
	cfg.Seed = 5
	cfg.MaxTestRuns = 120
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Error("LQ+no-TSO not found through the public API")
	}
}

func TestRunSamplesSeedsDiffer(t *testing.T) {
	cfg := ScaledScenarioConfig(GenRandom, DefaultScenario(), 1024)
	cfg.MaxTestRuns = 3
	set, err := RunCampaignSet(context.Background(), cfg, []Scenario{DefaultScenario()}, 2, 9, DefaultFleetOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(set.Results))
	}
	if set.Results[0].SumFitness == set.Results[1].SumFitness {
		t.Errorf("both samples have fitness sum %v: same seed twice?", set.Results[0].SumFitness)
	}
	for _, r := range set.Results {
		if r.Found {
			t.Errorf("bug-free sample reported a bug: %s", r.Detail)
		}
	}
}

func TestLitmusSuiteExposed(t *testing.T) {
	suite := LitmusSuite()
	if len(suite) != 38 {
		t.Fatalf("suite = %d tests, want 38", len(suite))
	}
	cfg := DefaultLitmusConfig(DefaultScenario())
	cfg.MaxPasses = 1
	cfg.IterationsPerTest = 2
	res, err := RunLitmus(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Errorf("bug-free litmus run fired: %s", res.Detail)
	}
	cfg.Scenario.Bugs = []string{"no-such-bug"}
	if _, err := RunLitmus(cfg, 4); err == nil {
		t.Error("unknown bug accepted by RunLitmus")
	}
}

func TestMemoryLayoutExposed(t *testing.T) {
	if _, err := NewMemoryLayout(8192, 16); err != nil {
		t.Errorf("paper layout rejected: %v", err)
	}
	if _, err := NewMemoryLayout(100, 13); err == nil {
		t.Error("invalid layout accepted")
	}
}

func mustScenario(t *testing.T, name string) Scenario {
	t.Helper()
	s, err := ScenarioByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
