// Package mcversi is a from-scratch Go reproduction of McVerSi (Elver &
// Nagarajan, "McVerSi: A Test Generation Framework for Fast Memory
// Consistency Verification in Simulation", HPCA 2016): a Genetic-
// Programming test-generation framework for memory-consistency
// verification of a full-system simulated multiprocessor.
//
// The package bundles everything the paper's evaluation needs:
//
//   - a discrete-event full-system simulator: 8 out-of-order cores with
//     load/store queues and a FIFO store buffer, private L1s, a NUCA
//     shared L2 over a 2×4 mesh, under a two-level directory MESI or the
//     lazy TSO-CC coherence protocol (Table 2);
//   - an axiomatic memory-model checker (SC, TSO, PSO and RMO) with full
//     conflict-order visibility, checking every iteration's execution
//     as it finishes, in polynomial time (§4.1); the same checker serves
//     recorded traces as an oracle (package oracle, cmd/check), where a
//     verdict memo and an on-disk verdict store answer traces checked
//     before;
//   - the GP engine with the paper's selective crossover (Algorithm 1),
//     NDT/NDe test-suitability metrics (Definitions 1–3) and adaptive
//     structural-coverage fitness (§3.2);
//   - a diy-style litmus-test generator and a runner that executes the
//     suite through the same host loop, counting a checker violation
//     only when it realises the test's forbidden outcome (§5.2.2);
//   - the 11 studied bugs (§5.3) as injection toggles.
//
// Quick start:
//
//	scen := mcversi.DefaultScenario() // the Table 2 MESI machine against TSO
//	scen.Bugs = []string{"MESI,LQ+IS,Inv"}
//	cfg := mcversi.NewScenarioCampaignConfig(mcversi.GenGPAll, scen)
//	cfg.Seed = 42
//	res, err := mcversi.Run(cfg)
//
// RunCampaignSet runs the paper's unit of evaluation — several seeds of
// one configuration, optionally across a scenario list — on all cores.
//
// See examples/ for complete programs and EXPERIMENTS.md for the
// reproduction of every table and figure.
package mcversi

import (
	"context"
	"math/rand"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/cpu"
	"repro/internal/fleet"
	"repro/internal/gp"
	"repro/internal/host"
	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/scenario"
	"repro/internal/testgen"
)

// Protocol selects the coherence protocol under verification.
type Protocol = machine.Protocol

// The two studied protocols (§5.3).
const (
	MESI  = machine.MESI
	TSOCC = machine.TSOCC
)

// GeneratorKind selects the test-generation strategy (§5.2.1).
type GeneratorKind = core.GeneratorKind

// The evaluated generator configurations.
const (
	// GenRandom is McVerSi-RAND: pseudo-random tests with the
	// framework's simulation-specific optimizations but no feedback.
	GenRandom = core.GenRandom
	// GenGPAll is McVerSi-ALL: GP with the selective crossover and
	// adaptive coverage fitness.
	GenGPAll = core.GenGPAll
	// GenGPStdXO is McVerSi-Std.XO: GP with single-point crossover.
	GenGPStdXO = core.GenGPStdXO
)

// CampaignConfig configures one verification campaign.
type CampaignConfig = core.Config

// CampaignResult summarizes one campaign.
type CampaignResult = core.Result

// Bug describes one of the 11 studied bugs.
type Bug = bugs.Bug

// Bugs returns the studied bugs in Table 4 order.
func Bugs() []Bug { return bugs.All() }

// BugNames returns the studied bugs' names in Table 4 order.
func BugNames() []string { return bugs.Names() }

// MemoryLayout describes the usable test-memory range (Table 3's
// "Test memory (stride)"): size bytes scattered into 512-byte
// partitions separated by 1MB, stride-aligned base addresses.
type MemoryLayout = memsys.Layout

// NewMemoryLayout returns a layout of the given logical size and stride
// (the paper evaluates 1KB and 8KB with a 16B stride).
func NewMemoryLayout(sizeBytes, stride int) (MemoryLayout, error) {
	return memsys.NewLayout(sizeBytes, stride)
}

// TestMemoryStride is the base-address granularity of the campaign
// configurations built here (Table 3: 16B stride); a test-memory size
// must be a multiple of it.
const TestMemoryStride = 16

// NewScenarioCampaignConfig assembles a campaign at the paper's
// parameters (Table 2 machine, Table 3 test generation: 1k-operation
// tests over 8 threads, 10 iterations per test-run, 8KB/16B test
// memory) against a verification scenario (protocol × model ×
// relaxations × bugs).
func NewScenarioCampaignConfig(gen GeneratorKind, scen Scenario) CampaignConfig {
	cfg := core.DefaultConfig()
	cfg.Scenario = scen
	cfg.Generator = gen
	cfg.Test = testgen.Config{
		Size:    1000,
		Threads: machine.Cores,
		Layout:  memsys.MustLayout(8192, TestMemoryStride),
	}
	return cfg
}

// ScaledScenarioConfig assembles a campaign scaled for interactive use
// against a verification scenario: smaller tests and fewer iterations,
// preserving all generator behaviours. memBytes selects the test-memory
// size (1024 or 8192 in the paper); it panics on a size
// NewMemoryLayout(memBytes, TestMemoryStride) rejects, so callers
// holding user input check that first. The evaluation tables run the
// same configuration.
func ScaledScenarioConfig(gen GeneratorKind, scen Scenario, memBytes int) CampaignConfig {
	return core.ScaledConfig(gen, scen, memBytes)
}

// Scenario is a named, serializable verification target: coherence
// protocol, axiomatic model, legal core relaxations and injected bugs.
type Scenario = scenario.Scenario

// CoreRelax is the legal core ordering configuration of a scenario.
type CoreRelax = cpu.Relax

// Scenarios returns the registered scenarios (MESI/TSO-CC × SC/TSO/
// PSO/RMO where coherent), sorted by name.
func Scenarios() []Scenario { return scenario.All() }

// ScenarioNames returns the registered scenario names, sorted.
func ScenarioNames() []string { return scenario.Names() }

// ScenarioByName returns the named registered scenario; the error lists
// the known names.
func ScenarioByName(name string) (Scenario, error) { return scenario.ByName(name) }

// DefaultScenario returns the paper's target: the Table 2 MESI machine
// checked against TSO.
func DefaultScenario() Scenario { return scenario.Default() }

// Run executes a campaign to completion.
func Run(cfg CampaignConfig) (CampaignResult, error) {
	return core.RunCampaign(cfg)
}

// CampaignSet is a campaign set's deterministic output: per-campaign
// results in flat [scenario][sample] order (campaign i ran scenario
// i/samples) plus their aggregate. Its canonical JSON is byte-identical
// at any worker count and to a distributed run of the same set.
type CampaignSet = fleet.Merged

// RunCampaignSet runs samples campaigns of cfg per scenario (the
// paper's 10 samples per generator/bug pair, §5.1, times a scenario
// axis) with seeds derived from baseSeed, sharded across the fleet's
// workers. Every campaign runs until it finds a bug or spends its
// budget, and the set carries its phase breakdown in Obs. ctx bounds
// the whole run; opts selects worker count, the GP island model and
// progress events. On cancellation the partial set is returned beside
// the error. cfg contributes what a serializable spec carries —
// generator, test generation, GP, coverage, host options and budget;
// its Scenario, Seed and Memo are not used. See internal/fleet for the
// determinism guarantees.
func RunCampaignSet(ctx context.Context, cfg CampaignConfig, scens []Scenario, samples int, baseSeed int64, opts FleetOptions) (CampaignSet, error) {
	return fleet.LocalMerged(ctx, core.NewSpec(cfg, scens, samples, baseSeed), opts)
}

// FleetOptions tune a parallel campaign fleet (worker count, GP island
// migration, progress events).
type FleetOptions = fleet.Options

// FleetEvent is one streamed fleet progress report.
type FleetEvent = fleet.Event

// DefaultFleetOptions runs on all cores with the island model off.
func DefaultFleetOptions() FleetOptions { return fleet.DefaultOptions() }

// LitmusTest is one diy-style generated litmus test.
type LitmusTest = litmus.Test

// LitmusSuite generates the x86-TSO conformance suite (38 tests, like
// diy's count for TSO in §5.2.2).
func LitmusSuite() []*LitmusTest { return litmus.Suite() }

// LitmusSuiteConfig configures a litmus campaign: the scenario it runs
// on (TSO-checked) and its pass and iteration budget.
type LitmusSuiteConfig = litmus.SuiteConfig

// LitmusSuiteResult reports a litmus campaign's outcome.
type LitmusSuiteResult = litmus.SuiteResult

// RunLitmus executes the litmus suite on cfg's scenario or, when bug is
// named, on the TSO machine of that scenario's protocol with the bug
// injected. A find is a protocol error, a watchdog, or a TSO checker
// violation whose execution realises the detecting test's forbidden
// outcome.
func RunLitmus(cfg LitmusSuiteConfig, bug string, seed int64) (LitmusSuiteResult, error) {
	if bug != "" {
		cfg.Scenario = scenario.ForBug(cfg.Scenario.Protocol, bug)
	}
	return litmus.RunSuite(cfg, litmus.Suite(), seed)
}

// DefaultLitmusConfig returns the scaled litmus campaign configuration
// on the bug-free proto machine.
func DefaultLitmusConfig(proto Protocol) LitmusSuiteConfig {
	cfg := litmus.DefaultSuiteConfig()
	cfg.Scenario = scenario.ForBug(proto, "")
	return cfg
}

// TestCase is the GP chromosome: a flat list of ⟨pid, op⟩ genes.
type TestCase = testgen.Test

// NewRandomTestGenerator returns a Table 3 pseudo-random generator for
// building tests outside a campaign (see examples/quickstart).
func NewRandomTestGenerator(cfg testgen.Config, seed int64) (*testgen.Generator, error) {
	return testgen.NewGenerator(cfg, rand.New(rand.NewSource(seed)))
}

// TestGenConfig configures test generation (Table 3).
type TestGenConfig = testgen.Config

// GPParams are the GP parameters (Table 3).
type GPParams = gp.Params

// PaperGPParams returns Table 3's GP parameters.
func PaperGPParams() GPParams { return gp.PaperParams() }

// HostOptions configure the guest-host execution loop (Table 1, §4).
type HostOptions = host.Options

// MachineConfig is what varies between simulated systems: protocol,
// core relaxations, injected bugs and seed. The shape is always Table 2's
// (8 cores, 32 KB 4-way L1s, 8 × 128 KB 4-way L2 tiles, a 2×4 mesh).
type MachineConfig = machine.Config

// DefaultMachineConfig returns the Table 2 system under MESI, bug-free.
func DefaultMachineConfig() MachineConfig { return machine.DefaultConfig() }

// CoverageParams tune the adaptive-coverage fitness (§3.2).
type CoverageParams = coverage.Params
