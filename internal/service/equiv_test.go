package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// runTopology submits spec to a fresh service behind a real HTTP server
// and drains it with the given worker mix, returning the merged bytes
// fetched over the wire.
func runTopology(t *testing.T, spec core.Spec, shardSize, embedded, remote int) []byte {
	t.Helper()
	s, err := New(Config{ShardSize: shardSize, LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	ctx, cancel := context.WithCancel(context.Background())
	var embWG *sync.WaitGroup
	if embedded > 0 {
		embWG = s.StartWorkers(ctx, embedded)
	}
	var remoteWG sync.WaitGroup
	for i := 0; i < remote; i++ {
		remoteWG.Add(1)
		go func(i int) {
			defer remoteWG.Done()
			_ = RunWorker(ctx, client, WorkerOptions{
				Name: fmt.Sprintf("remote-%d", i),
				Poll: 5 * time.Millisecond,
			})
		}(i)
	}
	defer func() {
		cancel()
		remoteWG.Wait()
		if embWG != nil {
			embWG.Wait()
		}
	}()

	id, err := client.Submit(ctx, "equiv", spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitDone(ctx, id, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	data, err := client.ResultBytes(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServiceDistributedEquivalence is the tentpole guarantee: the
// service's merged output over HTTP is byte-identical to the local
// fleet.LocalMerged reference at every worker topology — one embedded
// pool, 1/2/4 remote workers, and a mixed fleet. The shard results
// themselves cross the wire as JSON, so this also proves the wire
// encoding round-trips every stat exactly.
//
// The sweep is also the observability-neutrality proof: service
// workers always run their shards with phase-span instrumentation on,
// while the local reference runs with it off — so every topology
// compared here is an instrumented-vs-uninstrumented pair. An explicit
// obs-on local reference is checked too, closing the square.
func TestServiceDistributedEquivalence(t *testing.T) {
	spec := testSpec(core.GenRandom, 3, 4, 23, "mesi-tso", "mesi-pso") // 6 items, 3 shards
	if testing.Short() {
		spec = testSpec(core.GenRandom, 2, 3, 23, "mesi-tso") // 2 items, 1 shard
	}
	want := referenceBytes(t, spec)

	obsOn, err := fleet.LocalMerged(context.Background(), spec,
		fleet.Options{Collective: true, Obs: true})
	if err != nil {
		t.Fatal(err)
	}
	obsOnBytes, err := obsOn.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(obsOnBytes, want) {
		t.Fatalf("instrumented local reference diverged from uninstrumented:\n  want %s\n  got  %s",
			want, obsOnBytes)
	}

	topologies := []struct {
		name             string
		embedded, remote int
	}{
		{"embedded-2", 2, 0},
		{"remote-1", 0, 1},
		{"remote-2", 0, 2},
		{"remote-4", 0, 4},
		{"mixed-1+1", 1, 1},
	}
	if testing.Short() {
		topologies = topologies[:2]
	}
	for _, tc := range topologies {
		t.Run(tc.name, func(t *testing.T) {
			got := runTopology(t, spec, 2, tc.embedded, tc.remote)
			if !bytes.Equal(got, want) {
				t.Fatalf("topology %s diverged from local reference:\n  want %s\n  got  %s",
					tc.name, want, got)
			}
		})
	}
}

// TestServiceCrossProtocolEquivalence repeats the byte-identity check
// with a spec that mixes protocols (the `mcversi -scenario all -remote`
// shape). With samples=3 and ShardSize=4 the first shard straddles the
// protocol boundary (CoverageMixed) and the only other shard is pure
// TSO-CC — the adversarial partition: if merges treat a mixed shard as
// merely "no coverage data", the surviving pure shard fabricates a
// TSO-CC coverage union the local single-shard reference never reports.
// A second run at ShardSize=2 covers the pure-shards-on-both-sides
// split, which must degrade identically via the key-mismatch path.
func TestServiceCrossProtocolEquivalence(t *testing.T) {
	spec := testSpec(core.GenRandom, 3, 4, 23, "mesi-tso", "tsocc-tso") // 6 items
	want := referenceBytes(t, spec)
	for _, shardSize := range []int{4, 2} {
		got := runTopology(t, spec, shardSize, 0, 2)
		if !bytes.Equal(got, want) {
			t.Fatalf("cross-protocol campaign (shard size %d) diverged over the wire:\n  want %s\n  got  %s",
				shardSize, want, got)
		}
	}
}

// TestServiceGPEquivalence repeats the byte-identity check with the GP
// generator, whose per-item state (populations, tournaments) is the
// hard case for determinism.
func TestServiceGPEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("GP topology sweep is slow; the random-generator sweep covers the plumbing")
	}
	spec := testSpec(core.GenGPAll, 2, 4, 41, "mesi-tso") // 2 items, 1 shard
	want := referenceBytes(t, spec)
	got := runTopology(t, spec, 2, 0, 2)
	if !bytes.Equal(got, want) {
		t.Fatalf("GP campaign diverged over the wire:\n  want %s\n  got  %s", want, got)
	}
}

// TestServiceSSEStream: the events endpoint replays history and streams
// live progress; a full client sees every item exactly once plus the
// terminal event — the contract cmd/mcversi -remote's progress
// rendering relies on.
func TestServiceSSEStream(t *testing.T) {
	s, err := New(Config{ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	spec := testSpec(core.GenRandom, 2, 3, 13, "mesi-tso", "mesi-pso")
	id, err := client.Submit(ctx, "", spec)
	if err != nil {
		t.Fatal(err)
	}

	wg := s.StartWorkers(ctx, 2)
	defer wg.Wait()
	defer cancel()

	samples := map[int]int{}
	var last Event
	err = client.Events(ctx, id, func(ev Event) bool {
		if ev.Type == EventSample {
			samples[ev.Sample]++
			if ev.Result == nil || ev.Scenario == "" {
				t.Errorf("sample event missing payload: %+v", ev)
			}
		}
		last = ev
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if last.Type != EventDone {
		t.Fatalf("stream ended on %q, want done", last.Type)
	}
	if len(samples) != spec.Items() {
		t.Fatalf("stream carried %d distinct samples, want %d", len(samples), spec.Items())
	}
	for idx, n := range samples {
		if n != 1 {
			t.Errorf("sample %d delivered %d times", idx, n)
		}
	}
	if last.TestRuns == 0 || last.ItemsDone != spec.Items() {
		t.Errorf("terminal event counters wrong: %+v", last)
	}
}
