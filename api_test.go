package mcversi

import "testing"

func TestBugRegistryExposed(t *testing.T) {
	if len(Bugs()) != 11 || len(BugNames()) != 11 {
		t.Fatalf("public bug registry has %d/%d entries, want 11", len(Bugs()), len(BugNames()))
	}
}

func TestNewCampaignConfigPaperScale(t *testing.T) {
	cfg := NewCampaignConfig(GenGPAll, MESI, "LQ+no-TSO")
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
	cfg := ScaledCampaignConfig(GenRandom, MESI, "LQ+no-TSO", 1024)
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
	cfg := ScaledCampaignConfig(GenRandom, MESI, "", 1024)
	cfg.MaxTestRuns = 3
	results, err := RunSamples(cfg, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	for _, r := range results {
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
	cfg := DefaultLitmusConfig(MESI)
	cfg.MaxPasses = 1
	cfg.IterationsPerTest = 2
	res, err := RunLitmus(cfg, "", 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Errorf("bug-free litmus run fired: %s", res.Detail)
	}
	if _, err := RunLitmus(cfg, "no-such-bug", 4); err == nil {
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
