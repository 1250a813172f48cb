package fleet

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// shardSpec is a CI-scale spec over the named scenarios.
func shardSpec(gen core.GeneratorKind, samples, budget int, baseSeed int64, names ...string) core.Spec {
	scens := make([]scenario.Scenario, 0, len(names))
	for _, n := range names {
		s, err := scenario.ByName(n)
		if err != nil {
			panic(err)
		}
		scens = append(scens, s)
	}
	cfg := scaledConfig(gen, "", budget)
	return core.NewSpec(cfg, scens, samples, baseSeed)
}

func TestPlanShards(t *testing.T) {
	cases := []struct {
		items, size int
		want        []Range
	}{
		{0, 4, nil},
		{5, 0, []Range{{0, 5}}},
		{5, 8, []Range{{0, 5}}},
		{6, 2, []Range{{0, 2}, {2, 4}, {4, 6}}},
		{7, 3, []Range{{0, 3}, {3, 6}, {6, 7}}},
		{1, 1, []Range{{0, 1}}},
	}
	for _, c := range cases {
		got := PlanShards(c.items, c.size)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("PlanShards(%d, %d) = %v, want %v", c.items, c.size, got, c.want)
		}
	}
}

// TestRunShardEventsAndGuards: per-item Done events carry global item
// indices and the shard carries its phase spans; invalid ranges are
// rejected, and so is Islands — for a strict sub-range, and across
// scenarios even for the whole spec.
func TestRunShardEventsAndGuards(t *testing.T) {
	spec := shardSpec(core.GenRandom, 2, 4, 3, "mesi-tso", "mesi-pso")
	events := make(chan Event, 16)
	done := make(chan map[int]bool)
	go func() {
		seen := map[int]bool{}
		for ev := range events {
			if ev.Done {
				seen[ev.Sample] = true
			}
		}
		done <- seen
	}()
	sr, err := RunShard(context.Background(), spec, Range{Start: 1, End: 3},
		Options{Events: events})
	close(events)
	if err != nil {
		t.Fatal(err)
	}
	if got := <-done; !got[1] || !got[2] || len(got) != 2 {
		t.Errorf("events carried samples %v, want global indices {1,2}", got)
	}
	if len(sr.Results) != 2 || sr.Results[0].Scenario == "" {
		t.Errorf("shard results malformed: %+v", sr.Results)
	}
	if sr.Obs.Sim.Count == 0 {
		t.Errorf("shard carries no sim spans: %s", sr.Obs)
	}

	if _, err := RunShard(context.Background(), spec, Range{Start: 2, End: 7}, Options{}); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if _, err := RunShard(context.Background(), spec, Range{Start: 2, End: 2}, Options{}); err == nil {
		t.Error("empty shard accepted")
	}
	if _, err := RunShard(context.Background(), spec, Range{Start: 0, End: 1}, Options{Islands: true}); err == nil {
		t.Error("Islands accepted for a sub-range")
	}
	whole := Range{Start: 0, End: spec.Items()}
	if _, err := RunShard(context.Background(), spec, whole, Options{Islands: true}); err == nil {
		t.Error("Islands accepted across two scenarios")
	}
}

// TestShardCrossProtocolCoverage: a range spanning protocols has no
// common vocabulary; its coverage key must go empty, mirroring the
// local cross-protocol sweep behaviour.
func TestShardCrossProtocolCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-protocol shard is covered by the merge property tests")
	}
	spec := shardSpec(core.GenRandom, 1, 4, 9, "mesi-tso", "tsocc-tso")
	sr, err := RunShard(context.Background(), spec, Range{Start: 0, End: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sr.CoverageKey != "" || sr.CoverageCounts != nil {
		t.Errorf("mixed-protocol shard kept coverage key %q", sr.CoverageKey)
	}
	if !sr.CoverageMixed {
		t.Error("mixed-protocol shard did not flag CoverageMixed; merges would treat it as 'no coverage data'")
	}
}
