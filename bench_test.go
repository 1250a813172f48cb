package mcversi

// The benchmark harness regenerates every table of the paper's
// evaluation at a scaled budget (see EXPERIMENTS.md, "Table 4" to
// "Table 6" for the scale and "Benchmarks" for how to run these):
//
//	BenchmarkTable4 — bug coverage per generator configuration
//	BenchmarkTable5 — bugs found under stepped budgets
//	BenchmarkTable6 — maximum total transition coverage
//
// plus the ablations the paper reports in prose: checker share of
// wall-clock (§5.2.1), host-vs-guest barrier cost (§4) and NDT evolution
// under the selective crossover (§6.1). cmd/tables regenerates the same
// tables at larger budgets.

import (
	"context"
	"math/rand"
	"os"
	"testing"

	"repro/internal/bugs"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fleet"
	"repro/internal/gp"
	"repro/internal/host"
	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/memmodel"
	"repro/internal/memsys"
	"repro/internal/testgen"
)

// skipHeavy keeps the multi-minute eval benches out of -short runs
// (CI runs go test -short -race; see .github/workflows/ci.yml).
func skipHeavy(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("heavy eval benchmark; skipped in -short mode")
	}
}

// quickBugs is the Table 4 subset exercised per benchmark run: one easy
// pipeline bug, one write-reorder bug, one transient-state protocol bug
// and one replacement bug (the 8KB-only class). cmd/tables runs all 11.
func quickBugs() []bugs.Bug {
	var out []bugs.Bug
	for _, name := range []string{"LQ+no-TSO", "SQ+no-FIFO", "MESI,LQ+IS,Inv", "MESI,LQ+S,Replacement"} {
		b, err := bugs.ByName(name)
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	return out
}

func BenchmarkTable4(b *testing.B) {
	skipHeavy(b)
	sc := eval.QuickScale()
	for i := 0; i < b.N; i++ {
		out := os.Stdout
		if i > 0 {
			out, _ = os.Open(os.DevNull)
		}
		if err := eval.Table4(out, eval.Columns(), quickBugs(), sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	skipHeavy(b)
	sc := eval.QuickScale()
	specs := []eval.GeneratorSpec{eval.Columns()[1], eval.Columns()[5], eval.Columns()[6]}
	for i := 0; i < b.N; i++ {
		out := os.Stdout
		if i > 0 {
			out, _ = os.Open(os.DevNull)
		}
		if err := eval.Table5(out, specs, quickBugs(), sc, []int{60, 150, 300}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6(b *testing.B) {
	skipHeavy(b)
	sc := eval.QuickScale()
	sc.Samples = 1
	sc.Budget = 120
	specs := []eval.GeneratorSpec{eval.Columns()[0], eval.Columns()[1], eval.Columns()[4], eval.Columns()[5]}
	for i := 0; i < b.N; i++ {
		out := os.Stdout
		if i > 0 {
			out, _ = os.Open(os.DevNull)
		}
		if err := eval.Table6(out, specs, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckerShare measures the axiomatic checker in isolation: the
// paper reports it consumes 30–40% of wall-clock time at 1k-operation
// tests (§5.2.1).
func BenchmarkCheckerShare(b *testing.B) {
	gen, err := testgen.NewGenerator(testgen.Config{
		Size: 1000, Threads: 8, Layout: memsys.MustLayout(8192, 16),
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	tst := gen.NewTest()
	progs, err := testgen.Compile(tst)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := checker.NewRecorder(memmodel.TSO{})
		// Replay the serial execution (threads run to completion in
		// turn): reads observe the running memory contents.
		mem := map[memsys.Addr]uint64{}
		for tid, p := range progs {
			for idx := range p {
				in := &p[idx]
				switch in.Kind {
				case testgen.OpRead, testgen.OpReadAddrDp:
					rec.CommitRead(tid, idx, 0, in.Addr, mem[in.Addr.WordAddr()], false)
				case testgen.OpWrite:
					mem[in.Addr.WordAddr()] = in.WriteID
					rec.CommitWrite(tid, idx, 0, in.Addr, in.WriteID, false)
					rec.WriteSerialized(tid, idx, 0, in.Addr, in.WriteID)
				}
			}
		}
		if v := rec.EndIteration(); v != nil {
			b.Fatalf("serial execution rejected: %v", v)
		}
	}
}

// BenchmarkBarrierAblation compares host-assisted and guest barriers:
// the §4 claim that host assistance is mandatory for very short tests.
// Reported metric: simulated ticks per test-run under each barrier.
func BenchmarkBarrierAblation(b *testing.B) {
	for _, kind := range []host.BarrierKind{host.HostBarrier, host.GuestBarrier} {
		b.Run(kind.String(), func(b *testing.B) {
			cfg := machine.DefaultConfig()
			cfg.Seed = 5
			rec := checker.NewRecorder(memmodel.TSO{})
			trap := host.NewErrorTrap()
			m, err := machine.New(cfg, nil, trap, rec)
			if err != nil {
				b.Fatal(err)
			}
			h := host.New(m, rec, trap, host.Options{
				Iterations: 3, Barrier: kind, MaxTicksPerIteration: 30_000_000,
			})
			gen, err := testgen.NewGenerator(testgen.Config{
				Size: 96, Threads: 8, Layout: memsys.MustLayout(1024, 16),
			}, rand.New(rand.NewSource(7)))
			if err != nil {
				b.Fatal(err)
			}
			var ticks uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := h.RunTest(gen.NewTest())
				if err != nil {
					b.Fatal(err)
				}
				if res.Violation != nil {
					b.Fatalf("unexpected violation: %v", res.Violation)
				}
				ticks += uint64(res.Ticks)
			}
			b.ReportMetric(float64(ticks)/float64(b.N), "sim-ticks/run")
		})
	}
}

// BenchmarkNDTEvolution runs a short GP campaign at 8KB and reports the
// maximum NDT reached — §6.1: 8KB configurations start near 1.1 and only
// the selective crossover pushes past 2.0 at the paper's scale.
func BenchmarkNDTEvolution(b *testing.B) {
	skipHeavy(b)
	for _, kind := range []core.GeneratorKind{core.GenGPAll, core.GenRandom} {
		b.Run(string(kind), func(b *testing.B) {
			var maxNDT float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Generator = kind
				cfg.Seed = 13
				cfg.Test = testgen.Config{
					Size: 96, Threads: 8, Layout: memsys.MustLayout(8192, 16),
				}
				cfg.GP = gp.PaperParams()
				cfg.GP.PopulationSize = 24
				cfg.Host = host.Options{Iterations: 3, Barrier: host.HostBarrier, MaxTicksPerIteration: 30_000_000}
				cfg.MaxTestRuns = 150
				res, err := core.RunCampaign(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Found {
					b.Fatalf("bug-free campaign found %s", res.Detail)
				}
				maxNDT = res.MaxNDT
			}
			b.ReportMetric(maxNDT, "maxNDT")
		})
	}
}

// BenchmarkSimThroughput reports simulated instructions per host second
// (the paper's host sustains ~30k; the simplified substrate is far
// faster, which is what lets the scaled tables run in minutes).
func BenchmarkSimThroughput(b *testing.B) {
	cfg := machine.DefaultConfig()
	cfg.Seed = 9
	rec := checker.NewRecorder(memmodel.TSO{})
	trap := host.NewErrorTrap()
	m, err := machine.New(cfg, nil, trap, rec)
	if err != nil {
		b.Fatal(err)
	}
	h := host.New(m, rec, trap, host.Options{Iterations: 3, Barrier: host.HostBarrier, MaxTicksPerIteration: 30_000_000})
	gen, err := testgen.NewGenerator(testgen.Config{
		Size: 256, Threads: 8, Layout: memsys.MustLayout(8192, 16),
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	start := m.CommittedInstructions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.RunTest(gen.NewTest()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.CommittedInstructions()-start)/float64(b.N), "sim-insts/run")
}

// BenchmarkLitmusSuite measures one whole-suite litmus pass.
func BenchmarkLitmusSuite(b *testing.B) {
	tests := litmus.Suite()
	cfg := litmus.DefaultSuiteConfig()
	cfg.IterationsPerTest = 3
	cfg.MaxPasses = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := litmus.RunSuite(cfg, tests, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.Found {
			b.Fatalf("bug-free litmus run fired: %s", res.Detail)
		}
	}
}

// BenchmarkSelectiveCrossover measures Algorithm 1 in isolation.
func BenchmarkSelectiveCrossover(b *testing.B) {
	gen, err := testgen.NewGenerator(testgen.Config{
		Size: 1000, Threads: 8, Layout: memsys.MustLayout(8192, 16),
	}, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	engine, err := gp.New(gp.PaperParams(), gen, rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	pool := gen.Pool()
	fit := map[memsys.Addr]bool{pool[0]: true, pool[7]: true, pool[13]: true}
	for i := 0; i < gp.PaperParams().PopulationSize; i++ {
		engine.Feedback(&gp.Individual{Test: engine.Next(), Fitness: float64(i % 7), NDT: 1.5, FitAddrs: fit})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child := engine.Next()
		engine.Feedback(&gp.Individual{Test: child, Fitness: 0.3, NDT: 1.8, FitAddrs: fit})
	}
}

// BenchmarkFleetIslands measures the island model's epoch-barrier
// overhead against the plain pooled path on a bug-free GP workload (no
// bug means no early exit, so every sample does identical work and the
// comparison is pure scheduling).
func BenchmarkFleetIslands(b *testing.B) {
	const samples = 4
	cfg := core.DefaultConfig()
	cfg.Generator = core.GenGPAll
	cfg.GP.PopulationSize = 12
	cfg.Test = testgen.Config{
		Size: 96, Threads: 8, Layout: memsys.MustLayout(1024, 16),
	}
	cfg.Host = host.Options{Iterations: 3, Barrier: host.HostBarrier, MaxTicksPerIteration: 30_000_000}
	cfg.MaxTestRuns = 30
	spec := core.NewSpec(cfg, []Scenario{DefaultScenario()}, samples, 42)
	for _, islands := range []bool{false, true} {
		name := "pooled"
		if islands {
			name = "islands"
		}
		b.Run(name, func(b *testing.B) {
			opts := fleet.Options{Islands: islands, MigrationInterval: 10}
			for i := 0; i < b.N; i++ {
				if _, err := fleet.LocalMerged(context.Background(), spec, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
