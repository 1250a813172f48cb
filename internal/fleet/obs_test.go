package fleet

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestObsDoesNotChangeCanonicalBytes is the tentpole invariant: an
// instrumented campaign merges to exactly the bytes of an
// uninstrumented one, at the single-shard reference and across a
// random multi-shard partition.
func TestObsDoesNotChangeCanonicalBytes(t *testing.T) {
	spec := shardSpec(core.GenRandom, 3, 5, 23, "mesi-tso", "mesi-pso")
	items := spec.Items()

	ref, err := LocalMerged(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	refBytes, err := ref.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Obs.Empty() {
		t.Fatalf("obs-off merge carries spans: %s", ref.Obs)
	}

	on, err := LocalMerged(context.Background(), spec, Options{Obs: true})
	if err != nil {
		t.Fatal(err)
	}
	onBytes, err := on.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onBytes, refBytes) {
		t.Fatalf("instrumented merge changed canonical bytes:\n  off %s\n  on  %s", refBytes, onBytes)
	}
	if on.Obs.Empty() {
		t.Fatal("instrumented merge carries no spans")
	}

	// Multi-shard, instrumented, shuffled: bytes still identical, and
	// every shard carries its own snapshot.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 3; trial++ {
		part := randomPartition(rng, items)
		shards := make([]ShardResult, len(part))
		for i, r := range part {
			sr, err := RunShard(context.Background(), spec, r, Options{Obs: true})
			if err != nil {
				t.Fatal(err)
			}
			if sr.Obs == nil || sr.Obs.Empty() {
				t.Fatalf("trial %d: instrumented shard %s carries no snapshot", trial, r)
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
			t.Fatalf("trial %d: instrumented partition %v merged to different bytes", trial, part)
		}
		if merged.Obs.Empty() {
			t.Fatalf("trial %d: merged snapshot empty despite instrumented shards", trial)
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
		sr, err := RunShard(context.Background(), spec, r, Options{Obs: true})
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = sr
		want = want.Merge(*sr.Obs)
	}
	merged, err := MergeShards(items, shards)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Obs != want {
		t.Fatalf("merged snapshot != sum of shard snapshots:\n  got  %+v\n  want %+v", merged.Obs, want)
	}
}

// TestObsPhaseBreakdownPlausible: an instrumented run attributes time
// to the phases the campaign actually executes — test generation,
// simulation, and one verification span per checked iteration.
func TestObsPhaseBreakdownPlausible(t *testing.T) {
	spec := shardSpec(core.GenRandom, 2, 6, 23, "mesi-tso")
	m, err := LocalMerged(context.Background(), spec, Options{Obs: true})
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
