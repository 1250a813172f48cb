package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/machine"
)

// TestRandTestRunAllocatesNothing: once a kit has run a campaign, a rand
// test-run on it — generate into the kit's buffer, compile, simulate,
// record, check, reset — allocates nothing.
func TestRandTestRunAllocatesNothing(t *testing.T) {
	cfg := scaledConfig(GenRandom, machine.MESI, "", 1024, 1<<30)
	cfg.Seed = 3
	warm, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Advance(context.Background(), 20); err != nil {
		t.Fatal(err)
	}
	warm.Release()

	camp, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer camp.Release()
	step := func() {
		if _, err := camp.Advance(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if got := testing.AllocsPerRun(20, step); got != 0 {
		t.Errorf("a rand test-run on a reused kit allocates %.1f objects, want 0", got)
	}
}

// mallocs counts the heap objects f allocates.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestGPTestRunAllocatesNothing: a GP test-run on a reused kit
// allocates nothing, under either crossover — on the first test-run,
// which seeds into the population the last campaign left on the kit,
// and in steady state, where each child is written into the storage of
// the individual the ring last evicted. (The warm-up runs the same
// campaign further, so every buffer has seen each test-run measured.)
func TestGPTestRunAllocatesNothing(t *testing.T) {
	for _, gen := range []GeneratorKind{GenGPAll, GenGPStdXO} {
		t.Run(string(gen), func(t *testing.T) {
			cfg := scaledConfig(gen, machine.MESI, "", 1024, 1<<30)
			cfg.Seed = 3
			steady := 2 * cfg.GP.PopulationSize
			warm, err := NewCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			kitHost := warm.Host()
			if _, err := warm.Advance(context.Background(), steady+25); err != nil {
				t.Fatal(err)
			}
			warm.Release()

			camp, err := NewCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer camp.Release()
			if camp.Host() != kitHost {
				t.Fatal("the campaign did not take the kit the last one left")
			}
			step := func() {
				if _, err := camp.Advance(context.Background(), 1); err != nil {
					t.Fatal(err)
				}
			}
			if got := mallocs(step); got != 0 {
				t.Errorf("the first, seeding test-run allocates %d objects, want 0", got)
			}
			if _, err := camp.Advance(context.Background(), steady-1); err != nil {
				t.Fatal(err)
			}
			if got := testing.AllocsPerRun(20, step); got != 0 {
				t.Errorf("a steady-state test-run allocates %.1f objects, want 0", got)
			}
		})
	}
}

// TestGPKitReuseIdentity: a GP campaign returns the Result it returns
// on a fresh machine also on a kit a GP campaign of another population
// size and test size left — a smaller population at steady state, a
// larger one still seeding.
func TestGPKitReuseIdentity(t *testing.T) {
	cfg := scaledConfig(GenGPAll, machine.MESI, "", 1024, 30)
	cfg.Seed = 5
	mcfg, err := cfg.Scenario.Apply()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := machine.New(mcfg, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	machine.Release(fresh)
	ref, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Host().Machine() != fresh {
		t.Fatal("the reference campaign did not take the fresh machine")
	}
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	ref.Release()

	for _, shape := range []struct{ pop, size, runs int }{{8, 48, 16}, {40, 128, 20}} {
		other := cfg
		other.GP.PopulationSize, other.Test.Size, other.MaxTestRuns = shape.pop, shape.size, shape.runs
		other.Seed = 77
		left, err := NewCampaign(other)
		if err != nil {
			t.Fatal(err)
		}
		kitHost := left.Host()
		if res, err := left.Run(); err != nil || res.Found {
			t.Fatalf("the campaign meant to leave its kit behind: %+v, %v", res, err)
		}
		left.Release()

		camp, err := NewCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if camp.Host() != kitHost {
			t.Fatalf("population %d: the campaign did not take the kit left behind", shape.pop)
		}
		got, err := camp.Run()
		camp.Release()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("on a kit a population-%d, %d-op campaign left:\n got %+v\nwant %+v", shape.pop, shape.size, got, want)
		}
	}
}
