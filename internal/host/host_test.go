package host

import (
	"math/rand"
	"testing"

	"repro/internal/bugs"
	"repro/internal/checker"
	"repro/internal/machine"
	"repro/internal/memmodel"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/testgen"
)

// build assembles machine + recorder + host for tests.
func build(t *testing.T, proto machine.Protocol, bug bugs.Set, seed int64, opts Options) *Host {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Protocol = proto
	cfg.Bugs = bug
	cfg.Seed = seed
	rec := checker.NewRecorder(memmodel.TSO{})
	trap := NewErrorTrap()
	m, err := machine.New(cfg, nil, trap, rec)
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	return New(m, rec, trap, opts)
}

func smallOpts() Options {
	return Options{Iterations: 3, Barrier: HostBarrier, MaxTicksPerIteration: 30_000_000}
}

func randomTest(t *testing.T, seed int64, size, threads int, layout memsys.Layout) *testgen.Test {
	t.Helper()
	g, err := testgen.NewGenerator(testgen.Config{
		Size: size, Threads: threads, Layout: layout,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g.NewTest()
}

// TestSoundnessNoBugs: with all bugs off, random racy tests must never
// report violations under either protocol — the checker + machine
// combination is sound.
func TestSoundnessNoBugs(t *testing.T) {
	for _, proto := range []machine.Protocol{machine.MESI, machine.TSOCC} {
		t.Run(string(proto), func(t *testing.T) {
			h := build(t, proto, bugs.Set{}, 42, smallOpts())
			layout := memsys.MustLayout(1024, 16)
			for i := 0; i < 12; i++ {
				tst := randomTest(t, int64(100+i), 96, 8, layout)
				res, err := h.RunTest(tst)
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				if res.Violation != nil {
					t.Fatalf("run %d: false positive: %v", i, res.Violation)
				}
				if res.NDT < 1.0 {
					t.Errorf("run %d: NDT = %v < 1", i, res.NDT)
				}
			}
		})
	}
}

// TestSoundnessLargeMemory exercises the eviction-heavy 8KB layout with
// bugs off.
func TestSoundnessLargeMemory(t *testing.T) {
	for _, proto := range []machine.Protocol{machine.MESI, machine.TSOCC} {
		t.Run(string(proto), func(t *testing.T) {
			h := build(t, proto, bugs.Set{}, 7, smallOpts())
			layout := memsys.MustLayout(8192, 16)
			for i := 0; i < 6; i++ {
				tst := randomTest(t, int64(500+i), 128, 8, layout)
				res, err := h.RunTest(tst)
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				if res.Violation != nil {
					t.Fatalf("run %d: false positive: %v", i, res.Violation)
				}
			}
		})
	}
}

// hunt runs random tests until a violation is found or budget exhausts.
func hunt(t *testing.T, h *Host, layout memsys.Layout, budget int, seed int64) *Violation {
	t.Helper()
	g, err := testgen.NewGenerator(testgen.Config{
		Size: 96, Threads: 8, Layout: layout,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < budget; i++ {
		res, err := h.RunTest(g.NewTest())
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.Violation != nil {
			return res.Violation
		}
	}
	return nil
}

// TestFindsLQNoTSO: the canonical pipeline bug must be detectable with
// plain random tests on a small memory (Table 4: found in ~0.00 hours).
func TestFindsLQNoTSO(t *testing.T) {
	bug, err := bugs.SetFor("LQ+no-TSO")
	if err != nil {
		t.Fatal(err)
	}
	h := build(t, machine.MESI, bug, 3, smallOpts())
	v := hunt(t, h, memsys.MustLayout(1024, 16), 40, 9)
	if v == nil {
		t.Fatal("LQ+no-TSO not found within budget")
	}
	if v.Source != SourceChecker {
		t.Fatalf("unexpected violation source %v: %v", v.Source, v)
	}
}

// TestFindsSQNoFIFO: out-of-order store draining must be detectable.
func TestFindsSQNoFIFO(t *testing.T) {
	bug, err := bugs.SetFor("SQ+no-FIFO")
	if err != nil {
		t.Fatal(err)
	}
	h := build(t, machine.MESI, bug, 4, smallOpts())
	v := hunt(t, h, memsys.MustLayout(1024, 16), 40, 10)
	if v == nil {
		t.Fatal("SQ+no-FIFO not found within budget")
	}
}

// TestDeterministicRuns: identical seeds give identical results.
func TestDeterministicRuns(t *testing.T) {
	layout := memsys.MustLayout(1024, 16)
	run := func() (float64, sim.Tick) {
		h := build(t, machine.MESI, bugs.Set{}, 11, smallOpts())
		tst := randomTest(t, 13, 64, 8, layout)
		res, err := h.RunTest(tst)
		if err != nil {
			t.Fatal(err)
		}
		return res.NDT, res.Ticks
	}
	n1, t1 := run()
	n2, t2 := run()
	if n1 != n2 || t1 != t2 {
		t.Fatalf("non-deterministic: (%v,%v) vs (%v,%v)", n1, t1, n2, t2)
	}
}

// TestNDTIncreasesWithContention: a single-address test must be more
// racy than a spread-out one.
func TestNDTIncreasesWithContention(t *testing.T) {
	layoutSmall := memsys.MustLayout(64, 16)
	layoutLarge := memsys.MustLayout(8192, 16)
	run := func(layout memsys.Layout) float64 {
		h := build(t, machine.MESI, bugs.Set{}, 21, smallOpts())
		tst := randomTest(t, 23, 96, 8, layout)
		res, err := h.RunTest(tst)
		if err != nil {
			t.Fatal(err)
		}
		return res.NDT
	}
	small := run(layoutSmall)
	large := run(layoutLarge)
	if small <= large {
		t.Errorf("NDT(64B layout) = %v not greater than NDT(8KB layout) = %v", small, large)
	}
}

// TestRunResultFields sanity-checks bookkeeping.
func TestRunResultFields(t *testing.T) {
	h := build(t, machine.MESI, bugs.Set{}, 31, smallOpts())
	tst := randomTest(t, 33, 48, 4, memsys.MustLayout(512, 16))
	res, err := h.RunTest(tst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 {
		t.Errorf("Iterations = %d, want 3", res.Iterations)
	}
	if res.Ticks == 0 {
		t.Error("Ticks = 0")
	}
	if h.Runs() != 1 {
		t.Errorf("Runs = %d, want 1", h.Runs())
	}
	if h.FitAddrs(map[memsys.Addr]bool{}) == nil {
		t.Error("FitAddrs nil")
	}
}

// TestRunTestAllocationBudget guards the simulator access path: cache
// lines, coherence messages, L1 requests, compiled programs, the
// recorder's tables and the execution object are all reused, so a
// steady-state test-run allocates only while a free list or a recorder
// table is still growing to its high-water mark — where one heap object
// per message, request and transition used to make it tens of
// thousands.
func TestRunTestAllocationBudget(t *testing.T) {
	for _, proto := range []machine.Protocol{machine.MESI, machine.TSOCC} {
		t.Run(string(proto), func(t *testing.T) {
			h := build(t, proto, bugs.Set{}, 5, Options{Iterations: 5, Barrier: HostBarrier, MaxTicksPerIteration: 30_000_000})
			tst := randomTest(t, 9, 256, 8, memsys.MustLayout(1024, 16))
			run := func() {
				res, err := h.RunTest(tst)
				if err != nil || res.Violation != nil {
					t.Fatalf("run failed: %v %v", err, res.Violation)
				}
			}
			run() // pools, sets and tables reach their steady size
			run()
			const budget = 100 // measured: 0 on MESI, about 20 on TSO-CC
			if n := testing.AllocsPerRun(5, run); n > budget {
				t.Fatalf("a test-run allocates %.0f objects, budget %d", n, budget)
			}
		})
	}
}
