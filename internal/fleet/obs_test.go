package fleet

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestObsDoesNotChangeCanonicalBytes is the tentpole invariant: every
// campaign a fleet runs records its phase spans, and no span moves a
// Result. Each LocalMerged item equals the same item run by
// core.RunCampaign with no tracer, and every partition of the spec
// merges to the same bytes, each shard carrying spans of its own.
func TestObsDoesNotChangeCanonicalBytes(t *testing.T) {
	spec := core.NewSpec(scaledConfig(core.GenRandom, "", 60), findSweep(t), 1, 100)
	ref, err := LocalMerged(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Found != 1 {
		t.Fatalf("%d items found a bug, want 1", ref.Stats.Found)
	}
	if ref.Obs.Sim.Count == 0 {
		t.Fatalf("merge carries no sim spans: %s", ref.Obs)
	}
	for i, got := range ref.Results {
		cfg, err := spec.ItemConfig(i)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.RunCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("item %d: traced fleet result %+v, untraced campaign %+v", i, got, want)
		}
	}
	refBytes, err := ref.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}

	for _, part := range [][]Range{{{0, 2}}, {{1, 2}, {0, 1}}} {
		shards := make([]ShardResult, len(part))
		for i, r := range part {
			sr, err := RunShard(context.Background(), spec, r, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if sr.Obs.Sim.Count == 0 {
				t.Fatalf("shard %s carries no sim spans: %s", r, sr.Obs)
			}
			shards[i] = sr
		}
		merged, err := MergeShards(spec.Items(), shards)
		if err != nil {
			t.Fatal(err)
		}
		got, err := merged.CanonicalBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, refBytes) {
			t.Fatalf("partition %v merged to different bytes", part)
		}
	}
}

// TestObsSnapshotMergesAcrossPartitions: the merged snapshot is the
// exact sum of its shards' snapshots, whatever the partition — the
// obs leg of the merge algebra, on real shard runs.
func TestObsSnapshotMergesAcrossPartitions(t *testing.T) {
	spec := shardSpec(core.GenRandom, 2, 4, 11, "mesi-tso")
	items := spec.Items()
	part := []Range{{0, 1}, {1, items}}
	var want obs.Snapshot
	shards := make([]ShardResult, len(part))
	for i, r := range part {
		sr, err := RunShard(context.Background(), spec, r, Options{})
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = sr
		want = want.Merge(sr.Obs)
	}
	merged, err := MergeShards(items, shards)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Obs != want {
		t.Fatalf("merged snapshot != sum of shard snapshots:\n  got  %+v\n  want %+v", merged.Obs, want)
	}
}

// TestObsPhaseBreakdownPlausible: a run attributes time to the phases
// the campaign actually executes — test generation, simulation, and one
// verification span per checked iteration.
func TestObsPhaseBreakdownPlausible(t *testing.T) {
	spec := shardSpec(core.GenRandom, 2, 6, 23, "mesi-tso")
	m, err := LocalMerged(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Obs
	if s.Testgen.Count == 0 || s.Testgen.Ns <= 0 {
		t.Errorf("no testgen spans: %+v", s.Testgen)
	}
	if s.Sim.Count == 0 || s.Sim.Ns <= 0 {
		t.Errorf("no sim spans: %+v", s.Sim)
	}
	if s.Merging.Count != 1 {
		t.Errorf("merge spans = %+v, want exactly one", s.Merging)
	}
	// Every checked iteration ends in exactly one verdict span, fast
	// path or exact check; a campaign keeps no memo.
	if got, want := s.FastCheck.Count+s.Check.Count, m.Fastpath.Checks; got != want || got == 0 {
		t.Errorf("fastcheck+check spans = %d, checked iterations = %d", got, want)
	}
	if s.FastCheck.Count != m.Fastpath.Conclusive() {
		t.Errorf("fastcheck spans = %d, conclusive fast-path checks = %d", s.FastCheck.Count, m.Fastpath.Conclusive())
	}
	if s.Memo.Count != 0 {
		t.Errorf("a campaign booked %d memo spans", s.Memo.Count)
	}
}
