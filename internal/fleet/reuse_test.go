package fleet

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/gp"
	"repro/internal/host"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/scenario"
	"repro/internal/testgen"
)

// serviceShapeSpec is the shape of the benchmark's service-loopback
// workload: McVerSi-RAND, 48-op tests,
// 2 iterations, 10 test-runs per item, 1 KB, TSO and PSO side by side.
func serviceShapeSpec(samples int, baseSeed int64) core.Spec {
	var scens []scenario.Scenario
	for _, n := range []string{"mesi-tso", "mesi-pso"} {
		s, err := scenario.ByName(n)
		if err != nil {
			panic(err)
		}
		scens = append(scens, s)
	}
	cfg := core.DefaultConfig()
	cfg.Generator = core.GenRandom
	cfg.Test = testgen.Config{Size: 48, Threads: 8, Layout: memsys.MustLayout(1024, 16)}
	cfg.GP = gp.PaperParams()
	cfg.Coverage = coverage.DefaultParams()
	cfg.Host = host.Options{Iterations: 2, Barrier: host.HostBarrier, MaxTicksPerIteration: 30_000_000}
	cfg.MaxTestRuns = 10
	return core.NewSpec(cfg, scens, samples, baseSeed)
}

// TestShardSteadyStateAllocationBudget guards what a shard worker's
// steady state costs: by the third shard every item runs on a machine an
// earlier item gave back, with the kit (recorder, host buffers, tracker,
// generator, random sources, test buffer) that came with it, so an item
// allocates its Campaign and its share of the shard's results and
// coverage vector. Building a machine per item cost 632 kB and 2 768
// objects; building the kit per item, 116 kB and 640; building the
// tracker and generator per item, 8.4 kB in 62.
func TestShardSteadyStateAllocationBudget(t *testing.T) {
	spec := serviceShapeSpec(4, 5)
	whole := Range{Start: 0, End: spec.Items()}
	opts := DefaultOptions()
	opts.Workers = 1
	run := func() {
		sr, err := RunShard(context.Background(), spec, whole, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range sr.Results {
			if r.Found || r.TestRuns != spec.MaxTestRuns {
				t.Fatalf("item %d: %+v", i, r)
			}
		}
	}
	run() // builds one machine per scenario
	run() // free lists, cache ways and memory lines reach their steady size
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	items := uint64(spec.Items())
	bytes := (after.TotalAlloc - before.TotalAlloc) / items
	objects := (after.Mallocs - before.Mallocs) / items
	t.Logf("third shard: %d B and %d objects per item", bytes, objects)
	const maxBytes, maxObjects = 1_200, 4 // measured: 856 B in 1
	if bytes > maxBytes || objects > maxObjects {
		t.Fatalf("an item allocates %d B in %d objects, budget %d B in %d", bytes, objects, maxBytes, maxObjects)
	}
}

// TestConcurrentShardsOwnTheirMachines: shards running side by side in
// one process — a daemon's workers — take machines from and give them
// back to one idle list. A machine must belong to exactly one live
// campaign at a time, and sharing must not show in the results. The
// first half walks RunShard's own item loop (newCampaign → run →
// finish) from several goroutines and keeps the set of machines in use;
// the second runs RunShard itself concurrently and compares every
// merge to the sequential bytes. Under -race a machine in two campaigns
// would also be a data race on its simulator.
func TestConcurrentShardsOwnTheirMachines(t *testing.T) {
	const goroutines = 4
	spec := serviceShapeSpec(3, 11)
	whole := Range{Start: 0, End: spec.Items()}
	ctx := context.Background()

	var (
		mu   sync.Mutex
		live = map[*machine.Machine]int{}
		wg   sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := &shardRun{spec: spec, r: whole, opts: DefaultOptions().withDefaults()}
			for item := 0; item < spec.Items(); item++ {
				camp, err := s.newCampaign(item)
				if err != nil {
					t.Error(err)
					return
				}
				m := camp.Host().Machine()
				mu.Lock()
				if other, dup := live[m]; dup {
					t.Errorf("goroutine %d item %d was handed the machine goroutine %d is still running on", g, item, other)
				}
				live[m] = g
				mu.Unlock()
				res, err := camp.RunContext(ctx)
				if err != nil || res.Found {
					t.Errorf("goroutine %d item %d: %+v, %v", g, item, res, err)
				}
				mu.Lock()
				delete(live, m)
				mu.Unlock()
				s.finish(item, camp, Event{Result: res})
			}
		}(g)
	}
	wg.Wait()

	canonical := func(workers int) []byte {
		opts := DefaultOptions()
		opts.Workers = workers
		m, err := LocalMerged(ctx, spec, opts)
		if err != nil {
			t.Error(err)
			return nil
		}
		data, err := m.CanonicalBytes()
		if err != nil {
			t.Error(err)
		}
		return data
	}
	want := canonical(1)
	got := make([][]byte, goroutines)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = canonical(2)
		}(g)
	}
	wg.Wait()
	for g, data := range got {
		if !bytes.Equal(data, want) {
			t.Errorf("concurrent shard %d merged to %d bytes that differ from the sequential %d", g, len(data), len(want))
		}
	}
}

// TestCampaignSetAllocationIgnoresCollector: once the machines and their
// kits are parked, a campaign set — LocalMerged and CanonicalBytes —
// allocates the same bytes whether or not the collector just ran. A
// sync.Pool anywhere on the path (the exact checker's scratch,
// encoding/json's encode state, fmt's printers) hands out a warm object
// in one case and builds a new one in the other. The RMO item sends
// every check to the exact checker. The runtime's own background work
// (the scavenger re-arming its timer) can add 16 B to any one reading
// of the process-wide counter, so the test compares the least of
// several readings on each side: a pool refilled after every
// collection raises all of them.
func TestCampaignSetAllocationIgnoresCollector(t *testing.T) {
	spec := shardSpec(core.GenGPAll, 1, 20, 3, "mesi-sc", "mesi-tso", "mesi-pso", "mesi-rmo")
	opts := DefaultOptions()
	opts.Workers = 1
	run := func() {
		m, err := LocalMerged(context.Background(), spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		if m.Stats.Found != 0 || m.Stats.TestRuns != spec.Items()*spec.MaxTestRuns {
			t.Fatalf("stats %+v", m.Stats)
		}
		if _, err := m.CanonicalBytes(); err != nil {
			t.Fatal(err)
		}
	}
	collect := func() {
		runtime.GC()
		runtime.GC() // the second empties the pools' victim caches
	}
	run() // builds one machine and kit per scenario
	// Free lists, cache ways and memory lines reach their steady size;
	// so do the runtime structures a collection touches first.
	collect()
	run()
	var plain, collected []uint64
	for i := 0; i < 8; i++ {
		gc := i%2 == 1
		if gc {
			collect()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		if gc {
			collected = append(collected, after.TotalAlloc-before.TotalAlloc)
		} else {
			plain = append(plain, after.TotalAlloc-before.TotalAlloc)
		}
	}
	t.Logf("steady-state campaign set: %v B, after a collection %v B", plain, collected)
	if p, c := slices.Min(plain), slices.Min(collected); p != c {
		t.Errorf("a set allocates %d B, %d B after a collection: allocation depends on the collector", p, c)
	}
	const maxBytes = 8_192 // measured: 7 328 B (25.5–45 kB while the path drew on pools)
	if b := slices.Min(plain); b > maxBytes {
		t.Errorf("a steady-state campaign set allocates %d B, budget %d B", b, maxBytes)
	}
}
