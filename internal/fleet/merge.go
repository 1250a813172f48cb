package fleet

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/obs"
	"repro/internal/stats"
)

// coverageAcc merges per-transition count vectors that share one
// interned vocabulary, identified by key (the protocol name) instead of
// table pointer identity so shards from other processes merge too.
// Mixing keys poisons the accumulator: a cross-protocol sweep has no
// common vocabulary to take a union over.
type coverageAcc struct {
	key    string
	counts []uint64
	mixed  bool
}

// absorb folds one count vector in; addition is commutative and exact
// (uint64), so absorption order cannot change the merged vector.
func (a *coverageAcc) absorb(key string, counts []uint64) {
	if a.mixed || len(counts) == 0 {
		return
	}
	if a.counts == nil {
		a.key = key
		a.counts = make([]uint64, len(counts))
	}
	if a.key != key || len(a.counts) != len(counts) {
		a.poison()
		return
	}
	for i, c := range counts {
		a.counts[i] += c
	}
}

// poison marks the accumulator cross-protocol: the union degrades to
// ("", nil) no matter what else is (or was) absorbed. Used when a shard
// reports itself mixed — its own counts are already gone, and treating
// it as merely "no data" would let the surviving pure shards fabricate
// a union the single-shard reference run never produces.
func (a *coverageAcc) poison() {
	a.mixed = true
	a.key, a.counts = "", nil
}

// merged returns the accumulated (key, counts), or ("", nil) when mixed
// or empty.
func (a *coverageAcc) merged() (string, []uint64) {
	if a.mixed {
		return "", nil
	}
	return a.key, a.counts
}

// MergedStats is the deterministic aggregate of a merged campaign set.
// Every field is a pure function of the per-item Results and count
// vectors, folded in flat item order — never of worker topology, shard
// partition or arrival order.
type MergedStats struct {
	// Items is the campaign count; Found of them reported a bug, split
	// by detection channel in FoundBy.
	Items   int     `json:"items"`
	Found   int     `json:"found"`
	FoundBy FoundBy `json:"found_by"`
	// TestRuns totals completed test-runs.
	TestRuns int `json:"test_runs"`
	// SumFitness totals every campaign's fitness sum, folded in flat
	// item order (float addition commutes but does not associate, so
	// the fold order is part of the contract).
	SumFitness float64 `json:"sum_fitness"`
	// MaxCoverage is the best per-campaign Table 6 coverage.
	MaxCoverage float64 `json:"max_coverage"`
	// UnionCoverage is the fraction of the shared transition vocabulary
	// covered by at least one campaign (0 when protocols mix).
	UnionCoverage float64 `json:"union_coverage"`
	// CoverageKey/CoverageCounts expose the merged count vector the
	// union derives from, so equivalence checks compare exact integers
	// rather than a rounded fraction.
	CoverageKey    string   `json:"coverage_key,omitempty"`
	CoverageCounts []uint64 `json:"coverage_counts,omitempty"`
}

// FoundBy counts finds per host.ViolationSource, so a wedge or a
// protocol error never reads as a consistency violation.
type FoundBy struct {
	MCMViolation  int `json:"mcm_violation"`
	ProtocolError int `json:"protocol_error"`
	Deadlock      int `json:"deadlock"`
}

// note counts one result's find, and rejects a result whose Found and
// Source disagree: a find from no known channel, or a channel without a
// find.
func (f *FoundBy) note(r core.Result) error {
	if r.Found {
		switch r.Source {
		case host.SourceChecker.String():
			f.MCMViolation++
			return nil
		case host.SourceProtocol.String():
			f.ProtocolError++
			return nil
		case host.SourceDeadlock.String():
			f.Deadlock++
			return nil
		}
	} else if r.Source == "" {
		return nil
	}
	return fmt.Errorf("found=%v with source %q", r.Found, r.Source)
}

// Merged is a campaign set's complete deterministic output: per-item
// results in flat item order plus the aggregate. Its canonical JSON
// encoding is the equivalence currency — a run split into shards at any
// worker topology must produce the same bytes as a local run.
type Merged struct {
	Results []core.Result `json:"results"`
	Stats   MergedStats   `json:"stats"`
	// Obs is the summed phase timing of every shard (plus the merge
	// span at call sites that time themselves). It is deliberately
	// excluded from the JSON encoding: CanonicalBytes is the
	// byte-identity currency, and wall-clock spans are the one shard
	// output that legitimately differs run to run.
	Obs obs.Snapshot `json:"-"`
	// Fastpath sums the shards' fast-path checker tallies. It counts
	// checker work, not simulated events, so like Obs it is operator
	// telemetry outside the byte-identity contract.
	Fastpath stats.Fastpath `json:"-"`
}

// MergeShards assembles the deterministic merged output of a campaign
// set from its shard results. The shards must cover [0, items) exactly
// once; order is irrelevant (they are sorted by range). The aggregate
// is folded in flat item order, so any partition of the same item set
// merges to identical bytes — the property the merge-algebra tests
// fuzz. A result whose Found and Source disagree is an error.
func MergeShards(items int, shards []ShardResult) (Merged, error) {
	sorted := append([]ShardResult(nil), shards...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Range.Start < sorted[b].Range.Start })

	m := Merged{Results: make([]core.Result, 0, items)}
	var acc coverageAcc
	next := 0
	for _, sr := range sorted {
		if sr.Range.Start != next {
			return Merged{}, fmt.Errorf("fleet: shard coverage gap or overlap at item %d (next shard %s)", next, sr.Range)
		}
		if len(sr.Results) != sr.Range.Len() {
			return Merged{}, fmt.Errorf("fleet: shard %s carries %d results", sr.Range, len(sr.Results))
		}
		m.Results = append(m.Results, sr.Results...)
		m.Obs = m.Obs.Merge(sr.Obs)
		m.Fastpath.Merge(sr.Fastpath)
		if sr.CoverageMixed {
			acc.poison()
		} else {
			acc.absorb(sr.CoverageKey, sr.CoverageCounts)
		}
		next = sr.Range.End
	}
	if next != items {
		return Merged{}, fmt.Errorf("fleet: shards cover [0,%d), want [0,%d)", next, items)
	}
	return m.tally(items, acc)
}

// mergeWhole is MergeShards of RunShard's whole-spec shard, which the
// caller hands over: its results and count vector become the merge's
// instead of being copied.
func mergeWhole(sr ShardResult) (Merged, error) {
	m := Merged{Results: sr.Results, Obs: sr.Obs, Fastpath: sr.Fastpath}
	var acc coverageAcc
	if sr.CoverageMixed {
		acc.poison()
	} else if len(sr.CoverageCounts) > 0 {
		acc.key, acc.counts = sr.CoverageKey, sr.CoverageCounts
	}
	return m.tally(sr.Range.End, acc)
}

// tally fills m's aggregate from its Results, folded in flat item
// order, and the merged coverage acc.
func (m Merged) tally(items int, acc coverageAcc) (Merged, error) {
	m.Stats.Items = items
	for i, r := range m.Results {
		if err := m.Stats.FoundBy.note(r); err != nil {
			return Merged{}, fmt.Errorf("fleet: item %d: %w", i, err)
		}
		if r.Found {
			m.Stats.Found++
		}
		m.Stats.TestRuns += r.TestRuns
		m.Stats.SumFitness += r.SumFitness
		if r.TotalCoverage > m.Stats.MaxCoverage {
			m.Stats.MaxCoverage = r.TotalCoverage
		}
	}
	m.Stats.CoverageKey, m.Stats.CoverageCounts = acc.merged()
	if n := len(m.Stats.CoverageCounts); n > 0 {
		covered := 0
		for _, c := range m.Stats.CoverageCounts {
			if c > 0 {
				covered++
			}
		}
		m.Stats.UnionCoverage = float64(covered) / float64(n)
	}
	return m, nil
}

// LocalMerged is the one local entry point and the single-process
// reference: it runs the whole spec as one shard on the calling
// process's pool and merges it. Any split of the spec into shards run
// elsewhere must merge to the same bytes. Like RunShard it returns the partial merge beside a campaign
// or cancellation error.
func LocalMerged(ctx context.Context, spec core.Spec, opts Options) (Merged, error) {
	sr, runErr := RunShard(ctx, spec, Range{Start: 0, End: spec.Items()}, opts)
	if sr.Results == nil {
		return Merged{}, runErr
	}
	// The merge itself stays clock-free (pure function of its inputs);
	// the caller times it so the merge phase shows up in the breakdown.
	//mcvlint:allow nondeterm merge-span telemetry; CanonicalBytes strips phase timing
	t0 := time.Now()
	merged, err := mergeWhole(sr)
	if err != nil {
		return Merged{}, err
	}
	//mcvlint:allow nondeterm merge-span telemetry; CanonicalBytes strips phase timing
	merged.Obs = merged.Obs.Merge(obs.Span(obs.PhaseMerge, time.Since(t0)))
	return merged, runErr
}
