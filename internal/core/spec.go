package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/coverage"
	"repro/internal/gp"
	"repro/internal/host"
	"repro/internal/memsys"
	"repro/internal/scenario"
	"repro/internal/testgen"
)

// Spec is the serializable wire form of a campaign set: everything a
// remote worker needs to reproduce a slice of a campaign byte-for-byte.
// It covers the standard configuration surface (scenario list, generator
// selection, Table 3 test-generation sizes, GP/coverage/host parameters
// and the budget); exotic in-process knobs — a custom machine topology,
// a custom event kernel, a shared memo — deliberately have no wire form.
//
// A spec describes len(Scenarios) × Samples independent campaigns
// ("items") — the paper's samples-per-cell (§5.1) times a scenario
// axis. Item i runs scenario Scenarios[i/Samples] with seed
// SampleSeed(BaseSeed, i); both are pure functions of (spec, i), which
// is what makes a sharded remote run mergeable into a whole that is
// byte-identical to a local one. The spec is the only description of a
// campaign set: fleet.RunShard, local or on a remote worker, runs
// nothing else.
type Spec struct {
	// Scenarios are the verification targets, one campaign column per
	// entry. At least one is required.
	Scenarios []scenario.Scenario `json:"scenarios"`
	// Generator selects the test-generation strategy.
	Generator GeneratorKind `json:"generator"`
	// Samples is the number of campaigns (distinct seeds) per scenario.
	Samples int `json:"samples"`
	// BaseSeed derives every item's seed via SampleSeed.
	BaseSeed int64 `json:"base_seed"`
	// MaxTestRuns bounds each campaign in test-runs.
	MaxTestRuns int `json:"max_test_runs"`

	// TestSize is the operation count per generated test.
	TestSize int `json:"test_size"`
	// Threads is the test thread count (0 = the machine's core count).
	Threads int `json:"threads,omitempty"`
	// MemBytes and Stride describe the test-memory layout.
	MemBytes int `json:"mem_bytes"`
	Stride   int `json:"stride"`
	// DelayMax bounds OpDelay NOP counts (0 = testgen default).
	DelayMax int `json:"delay_max,omitempty"`

	// GP holds the GP parameters (gp-* generators).
	GP gp.Params `json:"gp"`
	// Coverage tunes the adaptive-coverage fitness.
	Coverage coverage.Params `json:"coverage"`
	// Host holds iteration count and barrier options.
	Host host.Options `json:"host"`
}

// NewSpec derives the wire form of cfg swept over scens × samples. The
// machine topology is not carried (remote ends use the Table 2 default,
// as cfg normally does); Layout.Base likewise resets to the default.
func NewSpec(cfg Config, scens []scenario.Scenario, samples int, baseSeed int64) Spec {
	return Spec{
		Scenarios:   scens,
		Generator:   cfg.Generator,
		Samples:     samples,
		BaseSeed:    baseSeed,
		MaxTestRuns: cfg.MaxTestRuns,
		TestSize:    cfg.Test.Size,
		Threads:     cfg.Test.Threads,
		MemBytes:    cfg.Test.Layout.Size,
		Stride:      cfg.Test.Layout.Stride,
		DelayMax:    cfg.Test.DelayMax,
		GP:          cfg.GP,
		Coverage:    cfg.Coverage,
		Host:        cfg.Host,
	}
}

// Items is the campaign count the spec describes.
func (s Spec) Items() int { return len(s.Scenarios) * s.Samples }

// ItemScenario returns item i's verification target.
func (s Spec) ItemScenario(i int) scenario.Scenario {
	return s.Scenarios[i/s.Samples]
}

// ItemSeed returns item i's campaign seed.
func (s Spec) ItemSeed(i int) int64 { return SampleSeed(s.BaseSeed, i) }

// Validate reports spec errors, including per-scenario validation and a
// dry materialization of item 0's campaign configuration.
func (s Spec) Validate() error {
	if len(s.Scenarios) == 0 {
		return fmt.Errorf("spec: at least one scenario required")
	}
	if s.Samples <= 0 {
		return fmt.Errorf("spec: samples must be positive, got %d", s.Samples)
	}
	for i, sc := range s.Scenarios {
		if err := sc.Validate(); err != nil {
			return fmt.Errorf("spec: scenario %d: %w", i, err)
		}
	}
	cfg, err := s.ItemConfig(0)
	if err != nil {
		return err
	}
	return cfg.Validate()
}

// ItemConfig materializes item i's campaign configuration. The caller
// owns process-local concerns (attaching a phase tracer); two processes
// materializing the same (spec, i) build campaigns that produce
// byte-identical Results.
func (s Spec) ItemConfig(i int) (Config, error) {
	if i < 0 || i >= s.Items() {
		return Config{}, fmt.Errorf("spec: item %d out of range [0,%d)", i, s.Items())
	}
	layout, err := memsys.NewLayout(s.MemBytes, s.Stride)
	if err != nil {
		return Config{}, fmt.Errorf("spec: %w", err)
	}
	cfg := DefaultConfig()
	cfg.Scenario = s.ItemScenario(i)
	cfg.Generator = s.Generator
	cfg.Seed = s.ItemSeed(i)
	cfg.MaxTestRuns = s.MaxTestRuns
	threads := s.Threads
	if threads == 0 {
		threads = cfg.Machine.Cores
	}
	cfg.Test = testgen.Config{
		Size:     s.TestSize,
		Threads:  threads,
		Layout:   layout,
		DelayMax: s.DelayMax,
	}
	cfg.GP = s.GP
	cfg.Coverage = s.Coverage
	cfg.Host = s.Host
	return cfg, nil
}

// ParseSpec deserializes and validates a spec; marshalling is plain
// encoding/json over the exported fields.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("spec: %w", err)
	}
	return s, s.Validate()
}
