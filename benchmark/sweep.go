package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/fleet"
	"repro/internal/gp"
	"repro/internal/host"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/testgen"
)

func scenarios(names ...string) ([]scenario.Scenario, error) {
	out := make([]scenario.Scenario, 0, len(names))
	for _, n := range names {
		s, err := scenario.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// sweepConfig is the campaign shape both sweep workloads share: GP-All,
// 8 threads, the paper's 1 KB / 16 B footprint; they differ in scenarios
// and budget. (Every shape that reports a violation on a bug-free
// machine at some seed — the 8 KB footprint, TSO-CC — is left out; see
// README.md, Known exclusions.)
func sweepConfig(sz sizes, testRuns int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Generator = core.GenGPAll
	cfg.GP = gp.PaperParams()
	cfg.GP.PopulationSize = sz.Population
	cfg.Coverage = coverage.DefaultParams()
	cfg.Test = testgen.Config{Size: sz.TestOps, Threads: 8, Layout: memsys.MustLayout(1024, 16)}
	cfg.Host = host.Options{Iterations: sz.Iterations, Barrier: host.HostBarrier, MaxTicksPerIteration: 30_000_000}
	cfg.MaxTestRuns = testRuns
	return cfg
}

func prepareSweepFast(seed int64, sz sizes, _ string) (instance, error) {
	scens, err := scenarios("mesi-sc", "mesi-tso", "mesi-pso")
	if err != nil {
		return nil, err
	}
	return newSweep(core.NewSpec(sweepConfig(sz, sz.FastRuns), scens, 1, seed), sz)
}

func prepareSweepExact(seed int64, sz sizes, _ string) (instance, error) {
	scens, err := scenarios("mesi-rmo")
	if err != nil {
		return nil, err
	}
	return newSweep(core.NewSpec(sweepConfig(sz, sz.ExactRuns), scens, sz.ExactSamples, seed), sz)
}

// sweep is a scenario sweep driven through fleet.LocalMerged with one
// worker: a closed loop, one campaign after another.
type sweep struct {
	spec core.Spec
	opts fleet.Options
	sz   sizes
}

// newSweep validates the spec and constructs every item's campaign
// once, so process-wide tables built on first use (scenario registry,
// interned coverage vocabulary) are paid in setup_s — where a change
// that moves work out of the timed region shows — not in the warm-up.
// This takes a few milliseconds and allocates a few megabytes; a
// collection landing inside it multiplies the time at random, so the
// collector is paused for its duration.
func newSweep(spec core.Spec, sz sizes) (*sweep, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	for i := 0; i < spec.Items(); i++ {
		cfg, err := spec.ItemConfig(i)
		if err != nil {
			return nil, err
		}
		if _, err := core.NewCampaign(cfg); err != nil {
			return nil, err
		}
	}
	opts := fleet.DefaultOptions()
	opts.Workers = 1
	return &sweep{spec: spec, opts: opts, sz: sz}, nil
}

func (s *sweep) close() {}

func (s *sweep) rep() outcome {
	m, err := fleet.LocalMerged(context.Background(), s.spec, s.opts)
	o, _ := checkMerged(s.spec, m, err)
	return o
}

// checkMerged verifies a bug-free sweep: every item completes its
// test-run budget and reports no violation (a violation here is a false
// positive, a wedge or a protocol error). Test-runs that did not
// complete and runs that reported a violation are failed ops. It
// returns the canonical encoding's length beside the outcome.
func checkMerged(spec core.Spec, m fleet.Merged, err error) (outcome, int) {
	o := outcome{Attempted: spec.Items() * spec.MaxTestRuns}
	if err != nil {
		o.Failed = o.Attempted
		o.Notes = append(o.Notes, err.Error())
		return o, 0
	}
	for i, r := range m.Results {
		missing := spec.MaxTestRuns - r.TestRuns
		if r.Found {
			missing++
			o.Notes = append(o.Notes, fmt.Sprintf("item %d (%s) after %d test-runs: %s: %s",
				i, spec.ItemScenario(i).Name, r.TestRuns, r.Source, r.Detail))
		}
		if missing > spec.MaxTestRuns {
			missing = spec.MaxTestRuns
		}
		o.Failed += missing
	}
	data, err := m.CanonicalBytes()
	if err != nil {
		o.Failed = o.Attempted
		o.Notes = append(o.Notes, err.Error())
		return o, 0
	}
	o.Fingerprint = fmt.Sprintf("%x", sha256.Sum256(data))
	return o, len(data)
}

// itemTrace is what one traced item measured.
type itemTrace struct {
	shard     fleet.ShardResult
	newMs     float64
	stepMs    []float64
	events    uint64
	ticks     uint64
	committed uint64
}

// tracedItem runs item i the way fleet.RunShard does — ItemConfig →
// NewCampaign → test-runs to the budget — with one span per call.
func (s *sweep) tracedItem(i int, memo *collective.Memo, ps *obs.PhaseStats, log *spanLog) (itemTrace, error) {
	var it itemTrace
	root := log.begin("item", i, 0, -1)
	defer log.end(root)
	cfg, err := s.spec.ItemConfig(i)
	if err != nil {
		return it, err
	}
	cfg.Memo = memo
	sp := log.begin("core.NewCampaign", i, 0, root)
	camp, err := core.NewCampaign(cfg)
	it.newMs = log.end(sp).Seconds() * 1e3
	if err != nil {
		return it, err
	}
	camp.InstrumentObs(ps)
	// The budget bounds the loop, so every Advance call runs exactly
	// one test-run (a violation ends the campaign early).
	for n := 0; n < s.spec.MaxTestRuns; n++ {
		sp := log.begin("core.Campaign.Advance", i, 0, root)
		done, err := camp.Advance(context.Background(), 1)
		it.stepMs = append(it.stepMs, log.end(sp).Seconds()*1e3)
		if err != nil {
			return it, err
		}
		if done {
			break
		}
	}
	res := camp.Result()
	it.shard = fleet.ShardResult{
		Range:          fleet.Range{Start: i, End: i + 1},
		Results:        []core.Result{res},
		CoverageKey:    string(s.spec.ItemScenario(i).Protocol),
		CoverageCounts: camp.Tracker().Snapshot(nil),
		Fastpath:       camp.Fastpath(),
	}
	it.events = camp.Host().Machine().Sim.Executed()
	it.ticks = uint64(res.SimTicks)
	it.committed = res.Committed
	return it, nil
}

// traced re-drives the sweep item by item from this file with one span
// per call, then MergeShards + CanonicalBytes. Each item becomes its own
// one-item shard; the merge algebra makes that byte-identical to
// LocalMerged's single shard, which the fingerprint check holds it to.
func (s *sweep) traced(log *spanLog) (outcome, layerMetrics) {
	memo := collective.NewMemo()
	ps := &obs.PhaseStats{}
	gw := startGCWatch()
	lm := layerMetrics{}

	items := s.spec.Items()
	shards := make([]fleet.ShardResult, 0, items)
	var (
		newMs, stepMs            []float64
		events, ticks, committed uint64
		err                      error
	)
	for i := 0; i < items && err == nil; i++ {
		var it itemTrace
		it, err = s.tracedItem(i, memo, ps, log)
		shards = append(shards, it.shard)
		newMs = append(newMs, it.newMs)
		stepMs = append(stepMs, it.stepMs...)
		events += it.events
		ticks += it.ticks
		committed += it.committed
		gw.sample()
	}
	var merged fleet.Merged
	if err == nil {
		sp := log.begin("fleet.MergeShards", items, 0, -1)
		merged, err = fleet.MergeShards(items, shards)
		lm["fleet.merge_ms"] = log.end(sp).Seconds() * 1e3
	}
	sp := log.begin("fleet.Merged.CanonicalBytes", items, 0, -1)
	o, size := checkMerged(s.spec, merged, err)
	log.end(sp)
	if err != nil {
		return o, lm
	}
	lm["fleet.canonical_bytes"] = float64(size)

	lm["core.new_campaign_ms"] = stats.Median(newMs)
	lm["core.step_ms_p50"] = stats.Median(stepMs)
	lm["core.step_ms_p95"] = percentile(stepMs, 0.95)
	snap := ps.Snapshot()
	var total float64 // Σ step time, ns
	for _, ms := range stepMs {
		total += ms * 1e6
	}
	if total > 0 {
		share := func(p obs.Phase) float64 { return float64(snap.Phase(p).Ns) / total }
		lm["obs.testgen_share"] = share(obs.PhaseTestgen)
		lm["obs.sim_share"] = share(obs.PhaseSim)
		lm["obs.fastcheck_share"] = share(obs.PhaseFastCheck)
		lm["obs.check_share"] = share(obs.PhaseCheck)
		lm["obs.memo_share"] = share(obs.PhaseMemo)
		lm["core.unattributed_share"] = 1 - float64(snap.TotalNs())/total
	}
	lm["sim.events"] = float64(events)
	lm["sim.ticks"] = float64(ticks)
	lm["cpu.committed_instr"] = float64(committed)
	if simNs := float64(snap.Sim.Ns); simNs > 0 {
		lm["sim.ns_per_event"] = simNs / float64(events)
		lm["cpu.kinstr_per_s"] = float64(committed) / 1e3 / (simNs / 1e9)
	}
	lm["coverage.union_share"] = merged.Stats.UnionCoverage
	ded := memo.Stats()
	lm["checker.checks"] = float64(ded.Checks)
	lm["collective.unique"] = float64(ded.Unique)
	lm["collective.hit_share"] = ded.HitRate()
	lm["fastpath.conclusive_share"] = merged.Fastpath.ConclusiveRate()
	lm["fastpath.fallbacks"] = float64(merged.Fastpath.Fallback)
	gw.report(lm)
	return o, lm
}

// kernels times test generation on the workload's own test shape:
// a fresh random test, its compilation, and one GP propose/feedback
// round on a seeded population.
func (s *sweep) kernels() layerMetrics {
	lm := layerMetrics{}
	cfg, err := s.spec.ItemConfig(0)
	if err != nil {
		return lm
	}
	rng := rand.New(rand.NewSource(s.spec.BaseSeed))
	gen, err := testgen.NewGenerator(cfg.Test, rng)
	if err != nil {
		return lm
	}
	var tests []*testgen.Test
	lm["testgen.new_test_us"] = timeEach(s.sz.KernelIters, func(int) {
		tests = append(tests, gen.NewTest())
	})
	lm["testgen.compile_us"] = timeEach(len(tests), func(i int) {
		_, _ = testgen.Compile(tests[i]) // a generated test always compiles
	})
	engine, err := gp.New(cfg.GP, gen, rng)
	if err != nil {
		return lm
	}
	round := func(i int) {
		t := engine.Next()
		engine.Feedback(&gp.Individual{Test: t, Fitness: rng.Float64(), NDT: 1 + rng.Float64(), FitAddrs: t.Addresses()})
	}
	for i := 0; !engine.Seeded(); i++ {
		round(i)
	}
	lm["gp.next_feedback_us"] = timeEach(s.sz.KernelIters, round)
	return lm
}

// timeBatch calls fn n times and returns the mean duration in µs — for
// calls too short for the clock to resolve one at a time.
func timeBatch(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / 1e3 / float64(n)
}

// timeEach calls fn n times and returns the median duration in µs.
func timeEach(n int, fn func(i int)) float64 {
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		fn(i)
		us[i] = float64(time.Since(t0)) / 1e3
	}
	return stats.Median(us)
}
