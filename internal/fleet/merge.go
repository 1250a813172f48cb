package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
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
// partition or arrival order. Dedupe in particular is the sum of the
// per-campaign (campaign-locally classified) counters, not a shared
// memo's fleet-wide tally, because only the former is identical whether
// items shared a memo within one process or ran in separate ones.
type MergedStats struct {
	// Items is the campaign count; Found of them reported a bug.
	Items int `json:"items"`
	Found int `json:"found"`
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
	// Dedupe sums the per-campaign collective-checking tallies.
	Dedupe stats.Dedupe `json:"dedupe"`
}

// Merged is a campaign set's complete deterministic output: per-item
// results in flat item order plus the aggregate. Its canonical JSON
// encoding is the service's equivalence currency — a distributed run at
// any worker topology must produce the same bytes as a local run.
type Merged struct {
	Results []core.Result `json:"results"`
	Stats   MergedStats   `json:"stats"`
	// Obs is the summed phase timing of every shard that carried one
	// (plus the merge span at call sites that time themselves). It is
	// deliberately excluded from the JSON encoding: CanonicalBytes is
	// the byte-identity currency, and wall-clock spans are the one
	// shard output that legitimately differs run to run.
	Obs obs.Snapshot `json:"-"`
	// Fastpath sums the shards' fast-path checker tallies. Excluded from
	// the JSON encoding for the same reason as Obs: the split between
	// fast-path verdicts and memo hits depends on where the shard cuts
	// fall (memos never cross shards), so the sum is operator telemetry,
	// not part of the byte-identity contract.
	Fastpath stats.Fastpath `json:"-"`
	// MemoDedupe sums the shards' shared-memo tallies — the view that
	// carries Dedupe.Durable when a verdict store is attached. Excluded
	// from the JSON encoding like Fastpath: the per-shard memo split is
	// partition-dependent operator telemetry (Stats.Dedupe is the
	// canonical, campaign-locally-classified tally).
	MemoDedupe stats.Dedupe `json:"-"`
}

// CanonicalBytes returns the deterministic JSON encoding (fixed field
// order, no maps; float64 values marshal to their exact shortest form).
func (m Merged) CanonicalBytes() ([]byte, error) {
	return json.Marshal(m)
}

// MergeShards assembles the deterministic merged output of a campaign
// set from its shard results. The shards must cover [0, items) exactly
// once; order is irrelevant (they are sorted by range). The aggregate
// is folded in flat item order, so any partition of the same item set
// merges to identical bytes — the property the merge-algebra tests
// fuzz.
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
		if sr.Obs != nil {
			m.Obs = m.Obs.Merge(*sr.Obs)
		}
		m.Fastpath.Merge(sr.Fastpath)
		m.MemoDedupe.Merge(sr.MemoDedupe)
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

	m.Stats.Items = items
	for _, r := range m.Results {
		if r.Found {
			m.Stats.Found++
		}
		m.Stats.TestRuns += r.TestRuns
		m.Stats.SumFitness += r.SumFitness
		if r.TotalCoverage > m.Stats.MaxCoverage {
			m.Stats.MaxCoverage = r.TotalCoverage
		}
		m.Stats.Dedupe.Merge(r.Dedupe)
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
// process's pool and merges it. The distributed tier's acceptance test
// is byte equality between this and a remote-worker run of the same
// spec. Like RunShard it returns the partial merge beside a campaign
// or cancellation error.
func LocalMerged(ctx context.Context, spec core.Spec, opts Options) (Merged, error) {
	sr, runErr := RunShard(ctx, spec, Range{Start: 0, End: spec.Items()}, opts)
	if sr.Results == nil {
		return Merged{}, runErr
	}
	// MergeShards itself stays clock-free (pure function of its inputs);
	// the caller times it so the merge phase shows up in the breakdown.
	var t0 time.Time
	if opts.Obs {
		//mcvlint:allow nondeterm merge-span telemetry; CanonicalBytes strips phase timing
		t0 = time.Now()
	}
	merged, err := MergeShards(spec.Items(), []ShardResult{sr})
	if err != nil {
		return Merged{}, err
	}
	if opts.Obs {
		//mcvlint:allow nondeterm merge-span telemetry; CanonicalBytes strips phase timing
		merged.Obs = merged.Obs.Merge(obs.Span(obs.PhaseMerge, time.Since(t0)))
	}
	return merged, runErr
}
