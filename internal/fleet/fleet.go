// Package fleet orchestrates many McVerSi verification campaigns
// concurrently: a worker pool shards (generator, bug, sample) work
// items across GOMAXPROCS goroutines with deterministic per-sample seed
// derivation (the same baseSeed yields byte-identical results at any
// worker count), context-based early stop cancels sibling samples as
// soon as one finds the target bug, and an event stream aggregates
// per-shard test-run counts, coverage and wall-clock into fleet Stats.
//
// On top of the pool, an opt-in GP island model (Options.Islands) runs
// each sample as an island evolving its own population; every
// MigrationInterval test-runs the islands synchronize at a barrier and
// migrate their elite chromosomes around a neighbor ring, entering the
// receiving population through the existing selective-crossover path
// (gp.Engine.Immigrate feeds the same delete-oldest ring that feedback
// uses, so migrants compete in tournaments and recombine via
// Algorithm 1). Because migration happens only at barriers, in ring
// order, island campaigns too are deterministic at any worker count.
//
// The sequential pre-fleet behaviour is the workers=1 degenerate case:
// fleet.SampleSet with Workers=1 (and Islands off) runs the exact loop
// of core.SampleSet on the calling goroutine.
package fleet

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Options tune a fleet run.
type Options struct {
	// Workers caps the number of concurrently executing campaigns;
	// <= 0 means GOMAXPROCS. Results never depend on the value (only
	// wall-clock does), except under StopOnFound in non-island mode,
	// where which siblings get cancelled is timing-dependent.
	Workers int
	// StopOnFound cancels all sibling samples as soon as one sample
	// finds a bug. Cancelled samples report their partial tally with
	// Stopped set in their event. In island mode the stop is checked at
	// epoch barriers, which keeps it deterministic.
	StopOnFound bool
	// Islands enables the GP island model: samples exchange elite
	// chromosomes around a neighbor ring every MigrationInterval
	// test-runs. Ignored for the rand generator (no population).
	Islands bool
	// MigrationInterval is the island epoch length in test-runs
	// (default 50).
	MigrationInterval int
	// MigrationSize is how many elites each island sends per epoch
	// (default 2).
	MigrationSize int
	// Collective enables collective checking: all samples share one
	// verdict memo table, so a (test, observed-ordering) pair is
	// model-checked at most once per fleet run — across workers and
	// islands. Verdicts and Results are identical either way (the memo
	// only deduplicates work), so determinism at any worker count is
	// preserved. If the campaign config already carries a Memo it is
	// used as-is (e.g. to share verdicts across several fleet runs).
	Collective bool
	// Store attaches a durable verdict tier beneath the collective
	// memo: signatures already decided by an earlier run (or another
	// process pointed at the same store directory) are answered from
	// disk instead of a fresh model check, tallied as Dedupe.Durable.
	// Results stay byte-identical — the store only persists (valid,
	// kind) and invalid hits re-derive their witness locally. Ignored
	// unless a memo is in play (Collective, or a caller-supplied
	// cfg.Memo that doesn't already have a store).
	Store collective.VerdictStore
	// Events, when non-nil, receives one Event per completed sample
	// and one per island epoch. Sends are blocking: the consumer must
	// drain the channel until SampleSet returns. The channel is never
	// closed by the fleet.
	Events chan<- Event
	// Obs enables phase-span instrumentation: every campaign times its
	// testgen/sim/check/memo sections into a shared obs.PhaseStats,
	// surfaced as Stats.Obs (SampleSet) or ShardResult.Obs (RunShard).
	// Spans are a wall-clock side channel outside the deterministic
	// result surface — Results, and the merged CanonicalBytes built
	// from them, are byte-identical with Obs on or off.
	Obs bool
}

// DefaultOptions runs on all cores with collective checking on, runs
// every sample to completion, and leaves the island model off.
func DefaultOptions() Options { return Options{Collective: true} }

func (o Options) withDefaults() Options {
	if o.MigrationInterval <= 0 {
		o.MigrationInterval = 50
	}
	if o.MigrationSize <= 0 {
		o.MigrationSize = 2
	}
	return o
}

// Event is one progress report from the fleet.
type Event struct {
	// Sample is the work-item index (seed = core.SampleSeed(base, Sample)).
	Sample int
	// Scenario names the work item's verification target (scenario
	// sweeps only; empty for single-scenario fleets).
	Scenario string
	// Epoch is the island epoch that just finished (island mode only).
	Epoch int
	// Done marks the sample's final event.
	Done bool
	// Stopped marks a sample cut off before completing (early stop,
	// caller cancellation, or a campaign error); its Result is the
	// partial tally.
	Stopped bool
	// Result is the sample's tally so far (test-runs, coverage, ...).
	Result core.Result
	// Elapsed is the sample's wall-clock time so far.
	Elapsed time.Duration
}

// Stats aggregates a fleet run.
type Stats struct {
	// Workers is the resolved worker count.
	Workers int
	// Samples is the number of work items; Completed of them ran to
	// their budget or found a bug, Stopped were cut off before
	// completing (early stop, caller cancellation, or a campaign
	// error), and Found report a bug.
	Samples, Completed, Stopped, Found int
	// TestRuns totals completed test-runs across all shards,
	// including the partial tallies of Stopped samples.
	TestRuns int
	// MaxCoverage is the best Table 6 coverage across shards.
	MaxCoverage float64
	// UnionCoverage is the fleet-wide Table 6 coverage: the fraction
	// of the transition table covered by at least one sample. Samples
	// record into per-campaign trackers over one shared interned
	// vocabulary; their count vectors are merged by TransitionID —
	// pooled samples at completion, islands at every epoch barrier.
	// Count merging is commutative, so the union is identical at any
	// worker count — with the same one caveat as Options.Workers:
	// under StopOnFound in non-island mode, cancelled siblings
	// contribute timing-dependent partial counts. Zero when the fleet
	// mixes transition vocabularies (a cross-protocol scenario sweep).
	UnionCoverage float64
	// Epochs and Migrations count island-model activity.
	Epochs, Migrations int
	// Dedupe snapshots the shared verdict memo after the run (zero
	// when Collective is off and no Memo was supplied): fleet-wide
	// checks, unique signatures and hits. Checks - Unique == Hits;
	// all three are deterministic at any worker count.
	Dedupe stats.Dedupe
	// Fastpath sums the per-campaign checker fast-path tallies. The
	// fleet-wide totals are deterministic at any worker count (each
	// unique signature is decided exactly once under a shared memo);
	// the per-campaign attribution is not, which is why the counters
	// ride here and never inside core.Result.
	Fastpath stats.Fastpath
	// Obs is the fleet-wide phase timing breakdown (zero unless
	// Options.Obs).
	Obs obs.Snapshot
	// Wall is the fleet's wall-clock time.
	Wall time.Duration
}

// errEarlyStop is the cancellation cause distinguishing "a sibling
// found the bug" from caller cancellation.
var errEarlyStop = errors.New("fleet: sibling found bug")

// attachStore hooks the durable verdict tier beneath the run's memo.
// A memo that already carries a store keeps it (the caller wired it
// deliberately, e.g. to share one store across several fleet runs).
func attachStore(memo *collective.Memo, opts Options) {
	if memo != nil && opts.Store != nil && memo.Store() == nil {
		memo.SetStore(opts.Store)
	}
}

// emitter serializes optional event delivery and owns the running
// aggregate.
type emitter struct {
	mu    sync.Mutex
	ch    chan<- Event
	stats Stats

	// ps is the shared phase-span tracer every campaign records into
	// (nil when Options.Obs is off).
	ps *obs.PhaseStats

	// Union-coverage merge state: per-transition counts summed across
	// samples, valid only while every sample shares one interned
	// vocabulary (table pointer identity — machine.CoverageTable is
	// memoized per protocol, so same-protocol fleets always share).
	covTable *coverage.Table
	covUnion []uint64
	covMixed bool
}

// absorbFastpath folds one campaign's fast-path tally into the
// fleet-wide sum. Commutative, so worker count cannot change totals.
func (em *emitter) absorbFastpath(f stats.Fastpath) {
	em.mu.Lock()
	em.stats.Fastpath.Merge(f)
	em.mu.Unlock()
}

// absorb folds one sample's per-transition count delta (indexed by the
// table's TransitionIDs) into the fleet-wide union. Addition is
// commutative, so absorption order — and therefore worker count —
// cannot change the result.
func (em *emitter) absorb(table *coverage.Table, delta []uint64) {
	em.mu.Lock()
	defer em.mu.Unlock()
	if em.covMixed {
		return
	}
	if em.covTable == nil {
		em.covTable = table
		em.covUnion = make([]uint64, table.Len())
	}
	if em.covTable != table {
		em.covMixed = true
		em.covTable, em.covUnion = nil, nil
		return
	}
	for i, d := range delta {
		em.covUnion[i] += d
	}
}

// unionCoverage finalizes Stats.UnionCoverage from the merged counts.
func (em *emitter) unionCoverage() float64 {
	em.mu.Lock()
	defer em.mu.Unlock()
	if em.covTable == nil || em.covTable.Len() == 0 {
		return 0
	}
	covered := 0
	for _, c := range em.covUnion {
		if c > 0 {
			covered++
		}
	}
	return float64(covered) / float64(em.covTable.Len())
}

func (em *emitter) emit(ev Event) {
	em.mu.Lock()
	if ev.Done {
		if ev.Stopped {
			em.stats.Stopped++
		} else {
			em.stats.Completed++
		}
		if ev.Result.Found {
			em.stats.Found++
		}
		em.stats.TestRuns += ev.Result.TestRuns
		if ev.Result.TotalCoverage > em.stats.MaxCoverage {
			em.stats.MaxCoverage = ev.Result.TotalCoverage
		}
	}
	ch := em.ch
	em.mu.Unlock()
	if ch != nil {
		ch <- ev
	}
}

// newEmitter starts a fleet run of n work items: the event channel,
// the shared phase tracer under Options.Obs, and the item and worker
// counts.
func newEmitter(opts Options, n int) *emitter {
	em := &emitter{ch: opts.Events}
	if opts.Obs {
		em.ps = &obs.PhaseStats{}
	}
	em.stats.Samples = n
	em.stats.Workers = Workers(opts.Workers, n)
	return em
}

// finish closes the run's aggregate: the memo's dedupe counters, the
// coverage union (meaningful while every item shares one vocabulary;
// zero when scenarios span protocols), the phase breakdown and the
// wall-clock since start.
func (em *emitter) finish(memo *collective.Memo, start time.Time) Stats {
	if memo != nil {
		em.stats.Dedupe = memo.Stats()
	}
	em.stats.UnionCoverage = em.unionCoverage()
	em.stats.Obs = em.ps.Snapshot()
	//mcvlint:allow nondeterm wall-clock telemetry for Stats.Wall; excluded from canonical bytes
	em.stats.Wall = time.Since(start)
	return em.stats
}

// SampleSet runs n campaigns of cfg with seeds derived from baseSeed
// (core.SampleSeed), sharded across the fleet's worker pool. The
// result slice is indexed by sample; samples never started because of
// early stop keep a zero Result. For a fixed (cfg, n, baseSeed,
// Islands, MigrationInterval, MigrationSize) the results are identical
// at any worker count; see Options.Workers for the one StopOnFound
// caveat.
func SampleSet(ctx context.Context, cfg core.Config, n int, baseSeed int64, opts Options) ([]core.Result, Stats, error) {
	opts = opts.withDefaults()
	//mcvlint:allow nondeterm wall-clock telemetry for Stats.Wall; excluded from canonical bytes
	start := time.Now()
	em := newEmitter(opts, n)

	// Collective checking: every sample's campaign shares one verdict
	// memo, keyed by canonical execution signature — the fleet-wide
	// "check once, reuse everywhere" table.
	if opts.Collective && cfg.Memo == nil {
		cfg.Memo = collective.NewMemo()
	}
	attachStore(cfg.Memo, opts)

	var (
		results []core.Result
		err     error
	)
	if opts.Islands && cfg.Generator != core.GenRandom {
		results, err = islandSampleSet(ctx, cfg, n, baseSeed, opts, em)
	} else {
		results, err = pooledItems(ctx, n, opts, em, func(i int) (core.Config, string) {
			c := cfg
			c.Seed = core.SampleSeed(baseSeed, i)
			return c, ""
		})
	}
	return results, em.finish(cfg.Memo, start), err
}

// pooledItems is the plain (non-island) path under SampleSet and
// ScenarioSweep: item i is one independent campaign, run to completion,
// of the config item(i) returns; the string beside it labels the
// item's events (Event.Scenario).
func pooledItems(ctx context.Context, n int, opts Options, em *emitter, item func(i int) (core.Config, string)) ([]core.Result, error) {
	ctx, stop := context.WithCancelCause(ctx)
	defer stop(nil)

	results, err := Map(ctx, opts.Workers, n, func(ctx context.Context, i int) (core.Result, error) {
		cfg, label := item(i)
		camp, err := core.NewCampaign(cfg)
		if err != nil {
			return core.Result{}, err
		}
		if em.ps != nil {
			camp.InstrumentObs(em.ps)
		}
		//mcvlint:allow nondeterm per-sample Elapsed telemetry; never feeds results
		t0 := time.Now()
		res, err := camp.RunContext(ctx)
		em.absorb(camp.Tracker().Table(), camp.Tracker().Snapshot(nil))
		em.absorbFastpath(camp.Fastpath())
		//mcvlint:allow nondeterm per-sample Elapsed telemetry; never feeds results
		ev := Event{Sample: i, Scenario: label, Done: true, Result: res, Elapsed: time.Since(t0)}
		if err != nil {
			// The sample did not complete: report its partial tally to
			// listeners and Stats either way. Only a genuine cancellation
			// caused by a sibling's find is benign; a campaign's own
			// failure (or caller cancellation) must still surface even if
			// the early-stop cause is already set.
			ev.Stopped = true
			em.emit(ev)
			if errors.Is(err, context.Canceled) && errors.Is(context.Cause(ctx), errEarlyStop) {
				return res, nil
			}
			return res, err
		}
		if opts.StopOnFound && res.Found {
			stop(errEarlyStop) // first cancel wins; later calls are no-ops
		}
		em.emit(ev)
		return res, nil
	})
	// Map records the bare cancellation for items it never started;
	// clear it only when the cancellation came from early stop. A real
	// campaign failure (non-Canceled err) always surfaces.
	if errors.Is(err, context.Canceled) && errors.Is(context.Cause(ctx), errEarlyStop) {
		err = nil
	}
	return results, err
}
