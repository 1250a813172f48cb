package mcversi

// Microbenchmarks of the loop's layers: the checker on one long
// execution, the simulator's instruction rate, one litmus suite pass,
// Algorithm 1's selective crossover and the island schedule. The
// paper's tables are regenerated by cmd/tables, and its in-text claims
// are measured once in EXPERIMENTS.md, "The paper's prose claims".

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/gp"
	"repro/internal/host"
	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/memmodel"
	"repro/internal/memsys"
	"repro/internal/testgen"
)

// BenchmarkCheckerShare times the axiomatic checker alone on one serial
// 1000-op execution. The paper's §5.2.1 share of wall time is recorded
// in EXPERIMENTS.md, "The paper's prose claims".
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

// BenchmarkSimThroughput reports simulated instructions per test-run;
// with ns/op that is the simulator's instruction rate, recorded beside
// the paper's ~30k/s in EXPERIMENTS.md, "The paper's prose claims".
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
