package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// TestFastpathScopeByModel pins the fast path's scope at campaign
// level, across the scenario matrix (all four models) and randomized
// seeds: on supported models every check is conclusive, on RMO every
// check falls back to the exact procedure.
func TestFastpathScopeByModel(t *testing.T) {
	rng := rand.New(rand.NewSource(0xfa57))
	for _, gen := range []core.GeneratorKind{core.GenRandom, core.GenGPAll} {
		for _, name := range []string{"mesi-sc", "mesi-tso", "mesi-pso", "mesi-rmo"} {
			scn, err := scenario.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 2; trial++ {
				cfg := scaledConfig(gen, "", 5)
				cfg.Scenario = scn
				cfg.Seed = rng.Int63()
				camp, err := core.NewCampaign(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := camp.RunContext(context.Background()); err != nil {
					t.Fatal(err)
				}
				fp := camp.Fastpath()
				if fp.Checks == 0 {
					t.Fatalf("%s/%v: fast path saw no checks", name, gen)
				}
				if name == "mesi-rmo" {
					if fp.Fallback != fp.Checks {
						t.Errorf("rmo: %d/%d checks decided on an unsupported model", fp.Conclusive(), fp.Checks)
					}
				} else if fp.Fallback != 0 {
					t.Errorf("%s: %d/%d checks fell back on a supported model: %s",
						name, fp.Fallback, fp.Checks, fp)
				}
			}
		}
	}
}

// TestFastpathCountersByteInvisible: the fast-path tallies ride shard
// results across the wire and sum commutatively in the merge, but
// never enter the merged CanonicalBytes — the same side-channel
// contract as the obs snapshots.
func TestFastpathCountersByteInvisible(t *testing.T) {
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
	if ref.Fastpath.Checks == 0 {
		t.Fatal("reference merge carries no fast-path tally")
	}
	if ref.Fastpath.ConclusiveRate() < 0.95 {
		t.Fatalf("fast path conclusive on %.1f%% of supported-model checks, want >= 95%%: %s",
			100*ref.Fastpath.ConclusiveRate(), ref.Fastpath)
	}

	// Zeroing the tally must not change the canonical encoding: the
	// counters are operator telemetry, not merge currency.
	zeroed := ref
	zeroed.Fastpath = stats.Fastpath{}
	zeroedBytes, err := zeroed.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zeroedBytes, refBytes) {
		t.Fatal("Fastpath tally leaked into CanonicalBytes")
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		part := randomPartition(rng, items)
		shards := make([]ShardResult, len(part))
		var want stats.Fastpath
		for i, r := range part {
			sr, err := RunShard(context.Background(), spec, r, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if sr.Fastpath.Checks == 0 {
				t.Fatalf("trial %d: shard %s carries no fast-path tally", trial, r)
			}
			// The tally must survive the wire encoding shard results
			// actually cross process boundaries in.
			data, err := json.Marshal(sr)
			if err != nil {
				t.Fatal(err)
			}
			var back ShardResult
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if back.Fastpath != sr.Fastpath {
				t.Fatalf("trial %d: tally lost in transit: sent %+v, got %+v", trial, sr.Fastpath, back.Fastpath)
			}
			shards[i] = sr
			want.Merge(sr.Fastpath)
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
			t.Fatalf("trial %d: partition %v merged to different bytes", trial, part)
		}
		if merged.Fastpath != want {
			t.Fatalf("trial %d: merged tally %+v != shard sum %+v", trial, merged.Fastpath, want)
		}
	}
}
