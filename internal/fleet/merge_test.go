package fleet

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/host"
)

// randomPartition cuts [0, items) into 1..items contiguous ranges.
func randomPartition(rng *rand.Rand, items int) []Range {
	var cuts []int
	for i := 1; i < items; i++ {
		if rng.Intn(2) == 0 {
			cuts = append(cuts, i)
		}
	}
	var out []Range
	start := 0
	for _, c := range cuts {
		out = append(out, Range{Start: start, End: c})
		start = c
	}
	return append(out, Range{Start: start, End: items})
}

// TestMergeAlgebraPartitions is the merge-algebra property test the
// distributed tier leans on: for random contiguous shard partitions of
// the same sample set, merged in random order, the canonical output
// bytes must equal the single-shard reference — i.e. the coverage
// count-vector union and the SumFitness fold are commutative and
// associative across partitions. Shards re-run their campaigns from
// scratch, so the test also exercises the claim that a re-run lease
// yields identical bytes.
func TestMergeAlgebraPartitions(t *testing.T) {
	specs := map[string]struct {
		spec core.Spec
		// crossProtocol specs have no shared vocabulary: the reference
		// union is 0 by design, and the property under test is that every
		// partition degrades identically (mixed shards must poison the
		// merge, not vanish into "no coverage data").
		crossProtocol bool
	}{
		"rand-2scen":  {spec: shardSpec(core.GenRandom, 3, 5, 23, "mesi-tso", "mesi-pso")},
		"gp-1scen":    {spec: shardSpec(core.GenGPAll, 4, 5, 41, "mesi-tso")},
		"rand-xproto": {spec: shardSpec(core.GenRandom, 3, 5, 23, "mesi-tso", "tsocc-tso"), crossProtocol: true},
	}
	trials := 4
	if testing.Short() {
		trials = 2
		delete(specs, "gp-1scen")
	}
	for name, tc := range specs {
		spec := tc.spec
		t.Run(name, func(t *testing.T) {
			items := spec.Items()
			ref, err := LocalMerged(context.Background(), spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			refBytes, err := ref.CanonicalBytes()
			if err != nil {
				t.Fatal(err)
			}
			if tc.crossProtocol {
				if ref.Stats.UnionCoverage != 0 || ref.Stats.CoverageKey != "" {
					t.Fatalf("cross-protocol reference kept coverage %q/%v; want degraded",
						ref.Stats.CoverageKey, ref.Stats.UnionCoverage)
				}
			} else if ref.Stats.UnionCoverage == 0 {
				t.Fatalf("reference union coverage is zero; the property would be vacuous")
			}

			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < trials; trial++ {
				part := randomPartition(rng, items)
				shards := make([]ShardResult, len(part))
				for i, r := range part {
					sr, err := RunShard(context.Background(), spec, r, Options{})
					if err != nil {
						t.Fatal(err)
					}
					shards[i] = sr
				}
				rng.Shuffle(len(shards), func(a, b int) { shards[a], shards[b] = shards[b], shards[a] })
				merged, err := MergeShards(items, shards)
				if err != nil {
					t.Fatal(err)
				}
				got, err := merged.CanonicalBytes()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, refBytes) {
					t.Fatalf("trial %d: partition %v merged to different bytes\n  ref %s\n  got %s",
						trial, part, refBytes, got)
				}
			}
		})
	}
}

// TestMergeCountsAlgebraSynthetic fuzzes the raw count-vector algebra
// with synthetic shards: absorption in any grouping and order yields
// the same vector, and mixed keys poison the union without corrupting
// results.
func TestMergeCountsAlgebraSynthetic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		width := 1 + rng.Intn(12)
		vecs := make([][]uint64, n)
		for i := range vecs {
			vecs[i] = make([]uint64, width)
			for j := range vecs[i] {
				vecs[i][j] = uint64(rng.Intn(5))
			}
		}
		fold := func(order []int) []uint64 {
			var acc coverageAcc
			for _, i := range order {
				acc.absorb("K", vecs[i])
			}
			_, c := acc.merged()
			return c
		}
		fwd := make([]int, n)
		rev := make([]int, n)
		for i := 0; i < n; i++ {
			fwd[i], rev[i] = i, n-1-i
		}
		shuf := append([]int(nil), fwd...)
		rng.Shuffle(n, func(a, b int) { shuf[a], shuf[b] = shuf[b], shuf[a] })
		a, b, c := fold(fwd), fold(rev), fold(shuf)
		for j := 0; j < width; j++ {
			if a[j] != b[j] || a[j] != c[j] {
				t.Fatalf("trial %d: count merge depends on order at %d: %d/%d/%d", trial, j, a[j], b[j], c[j])
			}
		}

		// A foreign key must poison the union deterministically.
		var acc coverageAcc
		acc.absorb("K", vecs[0])
		acc.absorb("OTHER", vecs[0])
		if key, counts := acc.merged(); key != "" || counts != nil {
			t.Fatal("mixed keys survived the merge")
		}
	}
}

// TestMergeShardsMixedPoison: a shard flagged CoverageMixed poisons the
// merged union even when its siblings are pure — without the flag the
// pure shards' counts would fabricate a coverage union the single-shard
// reference run never reports. A shard with no coverage data at all
// (empty key, nil counts, not mixed) must NOT poison.
func TestMergeShardsMixedPoison(t *testing.T) {
	pure := ShardResult{Range: Range{0, 2}, Results: make([]core.Result, 2),
		CoverageKey: "TSO-CC", CoverageCounts: []uint64{1, 0, 2}}
	mixed := ShardResult{Range: Range{2, 4}, Results: make([]core.Result, 2), CoverageMixed: true}
	m, err := MergeShards(4, []ShardResult{pure, mixed})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.CoverageKey != "" || m.Stats.CoverageCounts != nil || m.Stats.UnionCoverage != 0 {
		t.Fatalf("mixed shard did not poison the merge: %+v", m.Stats)
	}

	nodata := ShardResult{Range: Range{2, 4}, Results: make([]core.Result, 2)}
	m, err = MergeShards(4, []ShardResult{pure, nodata})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.CoverageKey != "TSO-CC" || m.Stats.UnionCoverage == 0 {
		t.Fatalf("no-data shard poisoned the merge: %+v", m.Stats)
	}
}

// TestMergeFoundBySource: finds are counted per detection channel — a
// deadlock raises only the deadlock count — and a result whose Found
// and Source disagree fails the merge.
func TestMergeFoundBySource(t *testing.T) {
	find := func(source string) core.Result { return core.Result{Found: true, Source: source, Detail: "x"} }
	shards := []ShardResult{
		{Range: Range{0, 2}, Results: []core.Result{find(host.SourceDeadlock.String()), {TestRuns: 3}}},
		{Range: Range{2, 4}, Results: []core.Result{find(host.SourceChecker.String()), find(host.SourceDeadlock.String())}},
	}
	m, err := MergeShards(4, shards)
	if err != nil {
		t.Fatal(err)
	}
	if want := (FoundBy{MCMViolation: 1, Deadlock: 2}); m.Stats.Found != 3 || m.Stats.FoundBy != want {
		t.Fatalf("found %d by %+v, want 3 by %+v", m.Stats.Found, m.Stats.FoundBy, want)
	}
	m, err = MergeShards(1, []ShardResult{{Range: Range{0, 1}, Results: []core.Result{find(host.SourceProtocol.String())}}})
	if err != nil || m.Stats.FoundBy != (FoundBy{ProtocolError: 1}) {
		t.Fatalf("protocol error merged to %+v, %v", m.Stats.FoundBy, err)
	}

	for _, bad := range []core.Result{
		find(""),
		find("watchdog"),
		{Source: host.SourceChecker.String()},
	} {
		sr := ShardResult{Range: Range{0, 1}, Results: []core.Result{bad}}
		if _, err := MergeShards(1, []ShardResult{sr}); err == nil {
			t.Errorf("merge accepted found=%v with source %q", bad.Found, bad.Source)
		}
	}
}

// TestMergeShardsValidation: gaps, overlaps, truncated results and
// short covers are rejected.
func TestMergeShardsValidation(t *testing.T) {
	mk := func(r Range) ShardResult {
		return ShardResult{Range: r, Results: make([]core.Result, r.Len())}
	}
	if _, err := MergeShards(4, []ShardResult{mk(Range{0, 2}), mk(Range{3, 4})}); err == nil {
		t.Error("gap accepted")
	}
	if _, err := MergeShards(4, []ShardResult{mk(Range{0, 3}), mk(Range{2, 4})}); err == nil {
		t.Error("overlap accepted")
	}
	if _, err := MergeShards(4, []ShardResult{mk(Range{0, 2})}); err == nil {
		t.Error("short cover accepted")
	}
	bad := mk(Range{0, 4})
	bad.Results = bad.Results[:2]
	if _, err := MergeShards(4, []ShardResult{bad}); err == nil {
		t.Error("truncated shard accepted")
	}
	if m, err := MergeShards(4, []ShardResult{mk(Range{2, 4}), mk(Range{0, 2})}); err != nil || m.Stats.Items != 4 {
		t.Errorf("out-of-order shards rejected: %v", err)
	}
}
