// Package core is the McVerSi framework proper: it wires the simulated
// machine, the guest-host interface, the axiomatic checker, the
// adaptive-coverage tracker and a test generator into the
// generate–execute–verify–feedback loop of §3, and runs verification
// campaigns until a bug is found or the budget is exhausted.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/checker"
	"repro/internal/collective"
	"repro/internal/coverage"
	"repro/internal/gp"
	"repro/internal/host"
	"repro/internal/machine"
	"repro/internal/memmodel"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testgen"
)

// GeneratorKind selects the test-generation strategy (§5.2.1).
type GeneratorKind string

// The evaluated generator configurations.
const (
	// GenRandom is McVerSi-RAND: pseudo-random tests using the
	// framework's simulation-specific optimizations but no feedback.
	GenRandom GeneratorKind = "rand"
	// GenGPAll is McVerSi-ALL: GP with the selective crossover and
	// adaptive coverage fitness.
	GenGPAll GeneratorKind = "gp-all"
	// GenGPStdXO is McVerSi-Std.XO: GP with single-point crossover and
	// a fitness blending coverage with normalized NDT.
	GenGPStdXO GeneratorKind = "gp-std-xo"
)

// Config parameterizes one verification campaign (one sample of a
// Table 4 cell).
type Config struct {
	// Scenario is the verification target: coherence protocol, axiomatic
	// model (which fixes the cores' legal relaxations) and injected bugs,
	// on the Table 2 machine.
	Scenario scenario.Scenario
	// Seed drives simulation and test generation.
	Seed int64
	// Test is the test-generation configuration (Table 3).
	Test testgen.Config
	// Generator selects the strategy.
	Generator GeneratorKind
	// GP holds the GP parameters (used by the gp-* generators).
	GP gp.Params
	// Coverage tunes the adaptive-coverage fitness.
	Coverage coverage.Params
	// Host holds the iteration count and the watchdog; its Barrier must
	// be host.HostBarrier.
	Host host.Options
	// MaxTestRuns bounds the campaign in test-runs (the scaled
	// equivalent of the paper's 24-hour limit).
	MaxTestRuns int
	// Memo, when non-nil, puts a verdict memo in front of the checker:
	// each iteration's execution is signed and each unique (program,
	// observed-ordering) pair is model-checked at most once per model
	// and memo lifetime, whichever scenario's campaign submits it.
	// Results are identical with or without it. Campaigns do not set it:
	// a signature costs about what a check does, and a campaign rarely
	// repeats an execution. Its last caller is the benchmark's traced
	// sweep pass; the field goes when that pass stops setting it.
	Memo *collective.Memo
}

// DefaultConfig returns a campaign configuration at the paper's
// parameters (Table 2 machine, Table 3 test generation, 1k-operation
// tests, 10 iterations per run) against the paper's scenario.
func DefaultConfig() Config {
	return Config{
		Scenario:    scenario.Default(),
		Generator:   GenGPAll,
		GP:          gp.PaperParams(),
		Coverage:    coverage.DefaultParams(),
		Host:        host.DefaultOptions(),
		MaxTestRuns: 10000,
	}
}

// ScaledConfig is a campaign against scen at the interactive scale the
// CLI and the evaluation tables run: Table 3's generator behaviours
// with 96-operation tests over every core, memBytes of test memory at a
// 16 B stride, a GP population of 24 and 3 iterations per test-run (the
// paper runs 1k operations and 10 iterations). It panics on a memBytes
// memsys.NewLayout rejects, so callers holding user input check that
// first.
func ScaledConfig(gen GeneratorKind, scen scenario.Scenario, memBytes int) Config {
	cfg := DefaultConfig()
	cfg.Scenario = scen
	cfg.Generator = gen
	cfg.Test = testgen.Config{
		Size:    96,
		Threads: machine.Cores,
		Layout:  memsys.MustLayout(memBytes, 16),
	}
	cfg.GP.PopulationSize = 24
	cfg.Host.Iterations = 3
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch c.Generator {
	case GenRandom, GenGPAll, GenGPStdXO:
	default:
		return fmt.Errorf("core: unknown generator %q", c.Generator)
	}
	if c.MaxTestRuns <= 0 {
		return fmt.Errorf("core: MaxTestRuns must be positive, got %d", c.MaxTestRuns)
	}
	if err := c.Test.Validate(); err != nil {
		return err
	}
	if c.Host.Iterations < 1 {
		return fmt.Errorf("core: Host.Iterations must be positive, got %d", c.Host.Iterations)
	}
	if c.Host.MaxTicksPerIteration == 0 {
		return fmt.Errorf("core: Host.MaxTicksPerIteration must be positive, got 0")
	}
	if c.Host.Barrier != host.HostBarrier {
		return fmt.Errorf("core: Host.Barrier must be %d (the host-assisted barrier), got %d", host.HostBarrier, c.Host.Barrier)
	}
	_, err := c.Scenario.Apply()
	return err
}

// Result summarizes one campaign.
type Result struct {
	// Scenario is the canonical identity (scenario.Scenario.ID) of the
	// verification target the campaign ran against.
	Scenario string
	// Found reports whether a bug manifested.
	Found bool
	// Source classifies the detection channel when found.
	Source string
	// Detail is the violation diagnosis.
	Detail string
	// TestRuns is the number of completed test-runs.
	TestRuns int
	// SimTicks is total simulated time.
	SimTicks sim.Tick
	// SimSeconds is SimTicks at the Table 2 clock.
	SimSeconds float64
	// Committed is the total committed instruction count.
	Committed uint64
	// TotalCoverage is the Table 6 metric at campaign end.
	TotalCoverage float64
	// MaxNDT and LastNDT track test suitability over the campaign.
	MaxNDT, LastNDT float64
	// SumFitness is the sum of every test-run's adaptive-coverage
	// fitness over the campaign — a compact fingerprint of the whole
	// per-run fitness stream. Campaigns are sequential, so the sum is
	// byte-identical at any fleet worker count; the fleet determinism
	// tests assert it per sample.
	SumFitness float64
}

func (r Result) String() string {
	status := "no bug found"
	if r.Found {
		status = fmt.Sprintf("FOUND (%s)", r.Source)
	}
	return fmt.Sprintf("%s after %d test-runs, %.1f sim-µs, coverage %.1f%%, maxNDT %.2f",
		status, r.TestRuns, r.SimSeconds*1e6, 100*r.TotalCoverage, r.MaxNDT)
}

// Campaign is an assembled verification campaign. A campaign is
// resumable: Advance runs it in bounded slices (the fleet's island
// scheduler interleaves migration between slices) and Result snapshots
// the tally at any point.
type Campaign struct {
	cfg Config
	// id is cfg.Scenario.ID(), the Scenario of every Result.
	id string
	// h drives the campaign's machine; nil once Release gave it back,
	// together with the kit's tracker, generator and engine, which the
	// machine's next campaign re-arms.
	h       *host.Host
	tracker *coverage.Tracker
	gen     *testgen.Generator
	engine  *gp.Engine
	norm    gp.NormalizeNDT
	// test is the kit's buffer the rand generator writes each test into.
	test *testgen.Test

	// ps accumulates per-phase wall-clock spans (generation and GP
	// feedback here, execution and verification in the host); nil
	// discards them. Spans never feed back into seeds, scheduling or
	// verdicts, so Results are byte-identical with a tracer or without.
	ps *obs.PhaseStats

	// fstats accumulates the checker fast-path outcome tallies across
	// test-runs. It lives outside Result: it counts checker work, which
	// a Config.Memo hit skips, not a property of the simulated events.
	fstats stats.Fastpath

	out      Result
	finished bool
	// failed records that a test-run returned an error: the machine may
	// have stopped anywhere and is not fit for reuse.
	failed bool
}

// kit is what a campaign builds around its machine and hands on with it
// (machine.Machine.Kit): the recorder, the error trap, the host with its
// buffers, the coverage tracker, the test generator with its address
// pool, the two random sources, the rand generator's test buffer and
// the GP engine with its population's storage. NewCampaign re-arms every
// piece to its campaign — arch and memo, machine and options,
// vocabulary and coverage parameters, test configuration, seeds, GP
// parameters — so a reused kit replays a new one, whichever campaign on
// a machine of that configuration left it (another model, generator,
// memo, seed, population size, memory size or test size).
type kit struct {
	rec           *checker.Recorder
	trap          host.ErrorTrap
	h             *host.Host
	tracker       coverage.Tracker
	gen           testgen.Generator
	genRng, gpRng *rand.Rand
	test          testgen.Test
	// engine is nil until a GP campaign runs on the kit.
	engine *gp.Engine
	// id is the ID of idOf, the last scenario a campaign ran on the kit.
	id   string
	idOf scenario.Scenario
}

// scenarioID returns s.ID(), spelling it only when s differs from the
// kit's last scenario in what an ID reads.
func (k *kit) scenarioID(s scenario.Scenario) string {
	if k.id == "" || s.Protocol != k.idOf.Protocol || s.Model != k.idOf.Model || !slices.Equal(s.Bugs, k.idOf.Bugs) {
		k.id, k.idOf = s.ID(), scenario.Scenario{Protocol: s.Protocol, Model: s.Model, Bugs: slices.Clone(s.Bugs)}
	}
	return k.id
}

// kitFor returns m's kit re-armed for a campaign against arch with
// host options opts, building one if m came without.
func kitFor(m *machine.Machine, arch memmodel.Arch, opts host.Options) *kit {
	k, ok := m.Kit.(*kit)
	if !ok {
		k = &kit{rec: checker.NewRecorder(arch), trap: host.NewErrorTrap()}
		k.h = host.New(m, k.rec, k.trap, opts)
		m.Kit = k
		return k
	}
	k.rec.Reset(arch)
	k.h.Reset(m, opts)
	return k
}

// seeded returns r re-seeded, or a new source at seed when r is nil:
// (*rand.Rand).Seed replays rand.NewSource.
func seeded(r *rand.Rand, seed int64) *rand.Rand {
	if r == nil {
		return rand.New(rand.NewSource(seed))
	}
	r.Seed(seed)
	return r
}

// NewCampaign builds all components for one campaign: the scenario is
// resolved once and supplies the machine contract (protocol, relax,
// bugs) and the checker's axiomatic model. The machine comes from
// machine.Acquire — a used one, with the kit its last campaign left on
// it, when an earlier campaign released one at the same configuration —
// and the campaign's owner returns both with Release.
func NewCampaign(cfg Config) (*Campaign, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mcfg, err := cfg.Scenario.Apply()
	if err != nil {
		return nil, err
	}
	mcfg.Seed = cfg.Seed

	arch, err := cfg.Scenario.Arch()
	if err != nil {
		return nil, err
	}
	m, err := machine.Acquire(mcfg)
	if err != nil {
		return nil, err
	}
	k := kitFor(m, arch, cfg.Host)
	c := &Campaign{cfg: cfg, id: k.scenarioID(cfg.Scenario), h: k.h, tracker: &k.tracker, gen: &k.gen, test: &k.test}
	k.rec.SetMemo(cfg.Memo)
	// The transition vocabulary is numbered once per protocol and shared
	// by every controller, so per-event recording is an increment into
	// the tracker's count vector.
	k.tracker.Reset(len(machine.Transitions(mcfg.Protocol)), cfg.Coverage)
	m.Reset(mcfg.Seed, &k.tracker, k.trap, k.rec)

	k.genRng = seeded(k.genRng, cfg.Seed^0x5eed)
	if err := k.gen.Reset(cfg.Test, k.genRng); err != nil {
		return nil, err
	}

	if cfg.Generator != GenRandom {
		params := cfg.GP
		if cfg.Generator == GenGPStdXO {
			params.Crossover = gp.SinglePointCrossover
		} else {
			params.Crossover = gp.SelectiveCrossover
		}
		k.gpRng = seeded(k.gpRng, cfg.Seed^0x6e61)
		if k.engine == nil {
			k.engine, err = gp.New(params, &k.gen, k.gpRng)
		} else {
			err = k.engine.Reset(params, &k.gen, k.gpRng)
		}
		if err != nil {
			return nil, err
		}
		c.engine = k.engine
	}
	return c, nil
}

// Release ends the campaign and gives its machine, with its kit, back
// for reuse by a later NewCampaign. Only the campaign's one owner calls
// it, once nobody will advance the campaign again; Result and Fastpath
// keep answering with the final tally, Host, Tracker and Engine return
// nil (the tracker is the kit's, which the machine's next campaign
// re-arms). A machine whose campaign found a violation of any source
// (checker, protocol error, watchdog) or returned an error is dropped
// instead, kit and all: it may hold transient lines, queued events or
// corrupted data.
func (c *Campaign) Release() {
	if c.h == nil {
		return
	}
	c.out = c.Result()
	c.finished = true
	m := c.h.Machine()
	c.h, c.tracker, c.gen, c.engine, c.test = nil, nil, nil, nil, nil
	if !c.out.Found && !c.failed {
		// A parked kit must not keep the campaign's memo or tracer alive.
		k := m.Kit.(*kit)
		k.rec.SetMemo(nil)
		k.h.SetObs(nil)
		machine.Release(m)
	}
}

// Host exposes the campaign's host (for inspection).
func (c *Campaign) Host() *host.Host { return c.h }

// Tracker exposes the coverage tracker, or nil after Release.
func (c *Campaign) Tracker() *coverage.Tracker { return c.tracker }

// Engine exposes the GP engine, or nil for the rand generator and after
// Release. The fleet's island scheduler uses it to exchange elites
// between concurrently evolving campaigns.
func (c *Campaign) Engine() *gp.Engine { return c.engine }

// InstrumentObs attaches a phase-span tracer (nil detaches). One
// tracer may be shared by many campaigns — PhaseStats is atomic — so a
// shard's campaigns typically record into a single accumulator.
func (c *Campaign) InstrumentObs(ps *obs.PhaseStats) {
	c.ps = ps
	c.h.SetObs(ps)
}

// nextTest proposes the next test.
func (c *Campaign) nextTest() *testgen.Test {
	if c.engine != nil {
		return c.engine.Next()
	}
	return c.gen.NewTestInto(c.test)
}

// feedback returns the evaluation to the generator.
func (c *Campaign) feedback(res host.RunResult, covFitness float64) {
	if c.engine == nil {
		return
	}
	fitness := covFitness
	if c.cfg.Generator == GenGPStdXO {
		// Std.XO blends coverage with normalized NDT with equal
		// weighting (§5.2.1).
		fitness = 0.5*covFitness + 0.5*c.norm.Norm(res.NDT)
	}
	// The engine's own Individual for the test, so its storage is
	// recycled.
	ind := c.engine.Pending()
	ind.Fitness, ind.NDT = fitness, res.NDT
	c.h.FitAddrs(ind.FitAddrs)
	c.engine.Feedback(ind)
}

// Step runs one test-run and returns its host result and fitness.
func (c *Campaign) Step() (host.RunResult, float64, error) {
	//mcvlint:allow nondeterm phase-timing lap; obs wall times never enter canonical results
	t0 := time.Now()
	tst := c.nextTest()
	//mcvlint:allow nondeterm phase-timing lap; obs wall times never enter canonical results
	c.ps.Observe(obs.PhaseTestgen, time.Since(t0))
	c.tracker.StartRun()
	res, err := c.h.RunTest(tst)
	if err != nil {
		c.failed = true
		return host.RunResult{}, 0, err
	}
	fitness := c.tracker.EndRun()
	//mcvlint:allow nondeterm phase-timing lap; obs wall times never enter canonical results
	t0 = time.Now()
	c.feedback(res, fitness)
	//mcvlint:allow nondeterm phase-timing lap; obs wall times never enter canonical results
	c.ps.Observe(obs.PhaseTestgen, time.Since(t0))
	return res, fitness, nil
}

// Done reports whether the campaign has reached its budget or found a
// bug.
func (c *Campaign) Done() bool { return c.finished }

// Advance runs up to extra further test-runs (extra <= 0 means
// unbounded) and reports whether the campaign completed: budget
// exhausted or bug found. Cancellation of ctx aborts between test-runs
// with ctx's error; the campaign stays resumable and Result still
// reflects everything run so far.
func (c *Campaign) Advance(ctx context.Context, extra int) (bool, error) {
	if c.finished {
		return true, nil
	}
	steps := 0
	for {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if c.out.TestRuns >= c.cfg.MaxTestRuns {
			c.finished = true
			return true, nil
		}
		if extra > 0 && steps >= extra {
			return false, nil
		}
		res, fitness, err := c.Step()
		if err != nil {
			return false, err
		}
		steps++
		c.out.TestRuns++
		c.out.SumFitness += fitness
		c.fstats.Merge(res.Fastpath)
		c.out.LastNDT = res.NDT
		if res.NDT > c.out.MaxNDT {
			c.out.MaxNDT = res.NDT
		}
		if res.Violation != nil {
			c.out.Found = true
			c.out.Source = res.Violation.Source.String()
			c.out.Detail = res.Violation.Err.Error()
			c.finished = true
			return true, nil
		}
	}
}

// Result snapshots the campaign tally, including totals (simulated
// time, committed instructions, coverage) as of now. It is valid at any
// point, including after a cancelled Advance.
func (c *Campaign) Result() Result {
	if c.h == nil { // after Release, c.out holds the final tally
		return c.out
	}
	out := c.out
	out.Scenario = c.id
	out.SimTicks = c.h.Machine().Sim.Now()
	out.Committed = c.h.Machine().CommittedInstructions()
	out.SimSeconds = out.SimTicks.Seconds()
	out.TotalCoverage = c.tracker.TotalCoverage()
	return out
}

// Fastpath returns the campaign's checker fast-path tally so far. It
// is reported beside Result, never inside it — see the fstats field.
func (c *Campaign) Fastpath() stats.Fastpath { return c.fstats }

// RunContext executes the campaign to completion or until ctx is
// cancelled, returning the tally so far in either case.
func (c *Campaign) RunContext(ctx context.Context) (Result, error) {
	if _, err := c.Advance(ctx, 0); err != nil {
		return c.Result(), err
	}
	return c.Result(), nil
}

// Run executes the campaign to completion.
func (c *Campaign) Run() (Result, error) {
	return c.RunContext(context.Background())
}

// RunCampaign is the one-call convenience wrapper.
func RunCampaign(cfg Config) (Result, error) {
	c, err := NewCampaign(cfg)
	if err != nil {
		return Result{}, err
	}
	defer c.Release()
	return c.Run()
}

// SampleSeed derives the i-th sample's seed from a base seed. The
// derivation is a pure function of (baseSeed, i) — Spec.ItemSeed is
// built on it — so a campaign set's results are identical at any
// worker count.
func SampleSeed(baseSeed int64, i int) int64 {
	return baseSeed + int64(i)*7919
}
