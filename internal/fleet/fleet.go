// Package fleet runs a campaign set — the len(Scenarios) × Samples
// independent campaigns a core.Spec describes — on a worker pool.
// RunShard is the one item loop: it materializes item i from
// spec.ItemConfig(i), so an item's scenario and seed are pure functions
// of (spec, i) and the same spec yields byte-identical Results at any
// worker count, in one process or sharded across many. LocalMerged runs
// the whole spec as one shard and MergeShards folds shard results into
// Merged, the one aggregate; its canonical JSON is what a distributed
// run is byte-compared against.
//
// Two options change the schedule and are honoured only when the shard
// is the whole spec: StopOnFound cancels sibling items once one finds a
// bug, and Islands runs the items of a single-scenario GP spec as an
// island model — every MigrationInterval test-runs the islands
// synchronize at a barrier and migrate their elite chromosomes around a
// neighbor ring, entering the receiving population through the existing
// selective-crossover path (gp.Engine.Immigrate feeds the same
// delete-oldest ring that feedback uses, so migrants compete in
// tournaments and recombine via Algorithm 1). Because migration happens
// only at barriers, in ring order, island runs too are deterministic at
// any worker count.
//
// Workers=1 is the sequential degenerate case: Map runs the items in
// order on the calling goroutine.
package fleet

import (
	"errors"
	"time"

	"repro/internal/core"
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
	// epoch barriers, which keeps it deterministic. Whole-spec shards
	// only: a sub-range cannot see its siblings.
	StopOnFound bool
	// Islands enables the GP island model: samples exchange elite
	// chromosomes around a neighbor ring every MigrationInterval
	// test-runs. Ignored for the rand generator (no population).
	// Whole-spec shards of a single scenario only: islands exchange
	// chromosomes bred for one machine contract.
	Islands bool
	// MigrationInterval is the island epoch length in test-runs
	// (default 50). Each island sends its two fittest individuals per
	// epoch.
	MigrationInterval int
	// Events, when non-nil, receives one Done event per item that
	// started (Stopped when it was cut off) and one per island epoch.
	// Sends are blocking: the consumer must drain the channel until
	// RunShard returns. The channel is never closed by the fleet.
	Events chan<- Event
	// Obs enables phase-span instrumentation: every campaign times its
	// testgen/sim/fastcheck/check sections into a shared obs.PhaseStats,
	// surfaced as ShardResult.Obs and summed into Merged.Obs.
	// Spans are a wall-clock side channel outside the deterministic
	// result surface — Results, and the merged CanonicalBytes built
	// from them, are byte-identical with Obs on or off.
	Obs bool
}

// DefaultOptions runs on all cores, runs every sample to completion, and
// leaves the island model off: the zero Options.
func DefaultOptions() Options { return Options{} }

func (o Options) withDefaults() Options {
	if o.MigrationInterval <= 0 {
		o.MigrationInterval = 50
	}
	return o
}

// migrationSize is how many elites each island sends per epoch.
const migrationSize = 2

// Event is one progress report from the fleet.
type Event struct {
	// Sample is the item's index in the spec (seed = spec.ItemSeed).
	Sample int
	// Scenario names the item's verification target.
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

// errEarlyStop is the cancellation cause distinguishing "a sibling
// found the bug" from caller cancellation.
var errEarlyStop = errors.New("fleet: sibling found bug")
