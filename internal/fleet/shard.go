package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Range is a half-open interval [Start, End) of campaign-item indices
// within a core.Spec — the unit of work a shard runs.
// Item i's seed and scenario are pure functions of (spec, i), so a
// range re-run anywhere, any number of times, yields identical bytes.
type Range struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Len is the item count.
func (r Range) Len() int { return r.End - r.Start }

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Start, r.End) }

// PlanShards partitions [0, items) into contiguous ranges of at most
// shardSize items (shardSize <= 0 means one shard). The plan is a pure
// function of its inputs: every process planning the same spec derives
// the same ranges without coordinating with anyone.
func PlanShards(items, shardSize int) []Range {
	if items <= 0 {
		return nil
	}
	if shardSize <= 0 || shardSize > items {
		shardSize = items
	}
	plan := make([]Range, 0, (items+shardSize-1)/shardSize)
	for start := 0; start < items; start += shardSize {
		end := start + shardSize
		if end > items {
			end = items
		}
		plan = append(plan, Range{Start: start, End: end})
	}
	return plan
}

// ShardResult is one item range's outcome: per-item campaign results
// (indexed Range.Start+i) plus the shard's merged per-transition
// coverage count vector, indexed by TransitionID over the protocol's
// interned vocabulary. TransitionIDs are sorted-order-stable per
// protocol, so the vector is meaningful across process boundaries;
// CoverageKey names the vocabulary (the protocol). CoverageMixed is set
// when the range itself spans protocols (no common vocabulary); it is
// distinct from an empty key with no counts (no coverage data), because
// a mixed shard must poison the whole merged union — the same
// degradation a local cross-protocol sweep applies — while a no-data
// shard must not.
type ShardResult struct {
	Range          Range         `json:"range"`
	Results        []core.Result `json:"results"`
	CoverageKey    string        `json:"coverage_key,omitempty"`
	CoverageCounts []uint64      `json:"coverage_counts,omitempty"`
	CoverageMixed  bool          `json:"coverage_mixed,omitempty"`
	// Obs is the shard's phase timing breakdown. It crosses the wire
	// with the shard but never enters the merged CanonicalBytes: wall
	// time is the one shard output that is NOT a pure function of
	// (spec, range).
	Obs obs.Snapshot `json:"obs"`
	// Fastpath sums the per-item fast-path checker tallies: every
	// iteration is checked, so it is a pure function of (spec, range).
	// It counts checker work, not simulated events, so it rides the wire
	// for operator visibility and stays out of CanonicalBytes.
	Fastpath stats.Fastpath `json:"fastpath"`
}

// RunShard executes one range of spec's items in-process: each item is
// an independent campaign with its spec-derived scenario and seed.
// Events carry the item's global index in Sample.
//
// Islands is honoured when r is the whole spec and rejected for a
// strict sub-range: island migration couples samples across the whole
// campaign set (it cannot be sharded), which would break the
// byte-identical merge the distributed tier is built on. It is also
// rejected across more than one scenario.
//
// When a campaign fails or ctx is cancelled, the error is returned
// beside the partial ShardResult: items that started keep their tally
// so far (and emitted a Stopped event), items that never started keep a
// zero Result. Only a spec, range or option error returns no results.
func RunShard(ctx context.Context, spec core.Spec, r Range, opts Options) (ShardResult, error) {
	if err := spec.Validate(); err != nil {
		return ShardResult{}, err
	}
	if r.Start < 0 || r.End > spec.Items() || r.Len() <= 0 {
		return ShardResult{}, fmt.Errorf("fleet: shard range %s outside spec items [0,%d)", r, spec.Items())
	}
	if opts.Islands && r.Len() != spec.Items() {
		return ShardResult{}, fmt.Errorf("fleet: Islands needs the whole spec, not sub-range %s", r)
	}
	if opts.Islands && len(spec.Scenarios) > 1 {
		return ShardResult{}, fmt.Errorf("fleet: Islands needs a single scenario, spec has %d", len(spec.Scenarios))
	}

	s := &shardRun{spec: spec, r: r, opts: opts.withDefaults()}

	var (
		results []core.Result
		err     error
	)
	if opts.Islands && spec.Generator != core.GenRandom {
		results, err = s.islands(ctx)
	} else {
		results, err = s.pooled(ctx)
	}

	out := ShardResult{Range: r, Results: results, CoverageMixed: s.cov.mixed, Obs: s.ps.Snapshot(), Fastpath: s.fp}
	out.CoverageKey, out.CoverageCounts = s.cov.merged()
	return out, err
}

// shardRun is what the campaigns of one RunShard call share: the phase
// tracer they record into, and the coverage and fast-path aggregates
// they fold into as they finish.
type shardRun struct {
	spec core.Spec
	r    Range
	opts Options
	ps   obs.PhaseStats

	mu  sync.Mutex
	cov coverageAcc
	fp  stats.Fastpath
}

// newCampaign builds item's campaign from the spec and hooks it to the
// shard's tracer.
func (s *shardRun) newCampaign(item int) (*core.Campaign, error) {
	cfg, err := s.spec.ItemConfig(item)
	if err != nil {
		return nil, err
	}
	camp, err := core.NewCampaign(cfg)
	if err != nil {
		return nil, err
	}
	camp.InstrumentObs(&s.ps)
	return camp, nil
}

// finish folds a campaign that will not advance again into the shard's
// aggregates, gives its machine back and emits its Done event. The
// tracker is the machine's kit's, so its counts are folded in before
// the machine goes back. Count and tally merging are commutative, so
// the order items finish in — and therefore the worker count — cannot
// change the shard's totals.
func (s *shardRun) finish(item int, camp *core.Campaign, ev Event) {
	s.mu.Lock()
	s.cov.absorb(string(s.spec.ItemScenario(item).Protocol), camp.Tracker().Counts())
	s.fp.Merge(camp.Fastpath())
	s.mu.Unlock()
	camp.Release()
	ev.Done = true
	s.emit(item, ev)
}

func (s *shardRun) emit(item int, ev Event) {
	if s.opts.Events == nil {
		return
	}
	ev.Sample = item
	ev.Scenario = s.spec.ItemScenario(item).Name
	s.opts.Events <- ev
}

// pooled is the plain schedule: every item is one independent campaign
// run to its end on the worker pool. A failed or cancelled item keeps
// its partial tally beside its error.
func (s *shardRun) pooled(ctx context.Context) ([]core.Result, error) {
	return Map(ctx, s.opts.Workers, s.r.Len(), func(ctx context.Context, k int) (core.Result, error) {
		item := s.r.Start + k
		camp, err := s.newCampaign(item)
		if err != nil {
			return core.Result{}, err
		}
		//mcvlint:allow nondeterm per-sample Elapsed telemetry; never feeds results
		t0 := time.Now()
		res, err := camp.RunContext(ctx)
		//mcvlint:allow nondeterm per-sample Elapsed telemetry; never feeds results
		s.finish(item, camp, Event{Stopped: err != nil, Result: res, Elapsed: time.Since(t0)})
		return res, err
	})
}
