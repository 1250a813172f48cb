// Package eval regenerates the paper's evaluation artifacts: Table 4
// (bug coverage per generator), Table 5 (bugs found under growing
// budgets) and Table 6 (maximum total transition coverage), at a
// configurable scale. The paper's absolute unit is wall-clock hours on
// the authors' host; the scaled unit here is test-runs (and simulated
// seconds), preserving the comparisons' shape.
package eval

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/memmodel"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// GeneratorSpec is one column of Table 4.
type GeneratorSpec struct {
	Name     string
	Kind     core.GeneratorKind
	MemBytes int
	// Litmus marks the diy-litmus column, which runs the litmus suite
	// instead of a McVerSi campaign.
	Litmus bool
}

// Columns returns the paper's seven generator configurations.
func Columns() []GeneratorSpec {
	return []GeneratorSpec{
		{Name: "McVerSi-ALL (1KB)", Kind: core.GenGPAll, MemBytes: 1024},
		{Name: "McVerSi-ALL (8KB)", Kind: core.GenGPAll, MemBytes: 8192},
		{Name: "McVerSi-Std.XO (1KB)", Kind: core.GenGPStdXO, MemBytes: 1024},
		{Name: "McVerSi-Std.XO (8KB)", Kind: core.GenGPStdXO, MemBytes: 8192},
		{Name: "McVerSi-RAND (1KB)", Kind: core.GenRandom, MemBytes: 1024},
		{Name: "McVerSi-RAND (8KB)", Kind: core.GenRandom, MemBytes: 8192},
		{Name: "diy-litmus", Litmus: true},
	}
}

// Scale bundles the scaled-down campaign knobs.
type Scale struct {
	// Samples per generator/bug pair (paper: 10).
	Samples int
	// Budget in test-runs per sample (the scaled 24-hour limit).
	Budget int
	// LitmusPasses bounds the litmus outer loop per sample.
	LitmusPasses int
	// Seed is the base seed.
	Seed int64
	// Parallel is the fleet worker count used to shard table cells
	// (<= 0 means GOMAXPROCS, 1 forces the sequential path). Cell
	// results do not depend on it — only wall-clock does.
	Parallel int
}

// QuickScale finishes in roughly a minute and shows the headline shape.
func QuickScale() Scale {
	return Scale{Samples: 2, Budget: 250, LitmusPasses: 4, Seed: 11}
}

// FullScale is the recommended reproduction scale (minutes).
func FullScale() Scale {
	return Scale{Samples: 10, Budget: 1200, LitmusPasses: 12, Seed: 11}
}

// Cell is one Table 4 entry.
type Cell struct {
	Found     int
	Samples   int
	MeanRuns  float64 // mean test-runs to find, over found samples
	MeanSimMS float64 // mean simulated milliseconds to find
}

func (c Cell) String() string {
	if c.Found == 0 {
		return "NF"
	}
	return fmt.Sprintf("%d/%d (%.0f runs, %.2f sim-ms)", c.Found, c.Samples, c.MeanRuns, c.MeanSimMS)
}

// RunCell evaluates one generator/bug pair. The cell's samples run as
// a one-scenario campaign set on one worker — the table drivers shard
// whole cells across workers instead, which keeps every cell's result
// bit-identical to the sequential reproduction.
func RunCell(spec GeneratorSpec, bug bugs.Bug, sc Scale) (Cell, error) {
	cell := Cell{Samples: sc.Samples}
	proto := machine.MESI
	if bug.Protocol == bugs.ProtoTSOCC {
		proto = machine.TSOCC
	}
	var runs, simMS []float64
	if spec.Litmus {
		cfg := litmus.SuiteConfig{
			Scenario:          scenario.ForBug(proto, bug.Name),
			IterationsPerTest: 6,
			MaxPasses:         sc.LitmusPasses,
		}
		suite := litmus.Suite()
		for s := 0; s < sc.Samples; s++ {
			res, err := litmus.RunSuite(cfg, suite, core.SampleSeed(sc.Seed, s))
			if err != nil {
				return cell, err
			}
			if res.Found {
				cell.Found++
				runs = append(runs, float64(res.Executions))
				simMS = append(simMS, res.SimTicks.Seconds()*1000)
			}
		}
	} else {
		cfg := core.ScaledConfig(spec.Kind, scenario.ForBug(proto, bug.Name), spec.MemBytes)
		cfg.MaxTestRuns = sc.Budget
		set, err := fleet.LocalMerged(context.Background(),
			core.NewSpec(cfg, []scenario.Scenario{cfg.Scenario}, sc.Samples, sc.Seed),
			fleet.Options{Workers: 1})
		if err != nil {
			return cell, err
		}
		for _, res := range set.Results {
			if res.Found {
				cell.Found++
				runs = append(runs, float64(res.TestRuns))
				simMS = append(simMS, res.SimSeconds*1000)
			}
		}
	}
	cell.MeanRuns = stats.Mean(runs)
	cell.MeanSimMS = stats.Mean(simMS)
	return cell, nil
}

// Table4 evaluates the grid and writes the table. The (bug, generator)
// cells are sharded across the fleet's worker pool (sc.Parallel
// workers) and printed in table order once all are in.
func Table4(w io.Writer, specs []GeneratorSpec, bugList []bugs.Bug, sc Scale) error {
	fmt.Fprintf(w, "Table 4 (scaled): bug found count out of %d samples (mean test-runs to find)\n", sc.Samples)
	scaled := core.ScaledConfig(core.GenGPAll, scenario.Default(), 1024)
	fmt.Fprintf(w, "budget=%d test-runs/sample, test size=%d ops, %d iterations/run\n\n", sc.Budget, scaled.Test.Size, scaled.Host.Iterations)
	fmt.Fprintf(w, "%-26s", "Bug")
	for _, spec := range specs {
		fmt.Fprintf(w, " | %-22s", spec.Name)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 26+len(specs)*25))
	type item struct {
		spec GeneratorSpec
		bug  bugs.Bug
	}
	var items []item
	for _, b := range bugList {
		for _, spec := range specs {
			items = append(items, item{spec, b})
		}
	}
	cells, err := fleet.Map(context.Background(), sc.Parallel, len(items),
		func(_ context.Context, i int) (Cell, error) {
			return RunCell(items[i].spec, items[i].bug, sc)
		})
	if err != nil {
		return err
	}
	// Consume in the exact order items was built.
	k := 0
	for _, b := range bugList {
		fmt.Fprintf(w, "%-26s", b.Name)
		for range specs {
			fmt.Fprintf(w, " | %-22s", cells[k].String())
			k++
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Table5 reports the fraction of bugs found under stepped budgets — the
// scaled analogue of "1 day / 5 days / 10 days". Each (generator, bug)
// runs once, at the largest budget: the budget only stops a campaign, so
// a find within budget b is one at test-run b or earlier. (The litmus
// column's pass count does not depend on the budget at all.)
func Table5(w io.Writer, specs []GeneratorSpec, bugList []bugs.Bug, sc Scale, budgetSteps []int) error {
	fmt.Fprintf(w, "Table 5 (scaled): bugs found within stepped budgets (of %d bugs)\n\n", len(bugList))
	fmt.Fprintf(w, "%-26s", "Generator")
	for _, b := range budgetSteps {
		fmt.Fprintf(w, " | %6d runs", b)
	}
	fmt.Fprintln(w)
	sc.Budget = slices.Max(budgetSteps)
	sc.Samples = 1
	cells, err := fleet.Map(context.Background(), sc.Parallel, len(specs)*len(bugList),
		func(_ context.Context, i int) (Cell, error) {
			return RunCell(specs[i/len(bugList)], bugList[i%len(bugList)], sc)
		})
	if err != nil {
		return err
	}
	for i, spec := range specs {
		fmt.Fprintf(w, "%-26s", spec.Name)
		for _, budget := range budgetSteps {
			found := 0
			for _, c := range cells[i*len(bugList) : (i+1)*len(bugList)] {
				if c.Found > 0 && (spec.Litmus || c.MeanRuns <= float64(budget)) {
					found++
				}
			}
			fmt.Fprintf(w, " | %9.0f%%", 100*float64(found)/float64(len(bugList)))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// ScenarioMatrix reports the scenario layer's two discrimination views.
//
// The first half is purely axiomatic: each weak-model classic of the
// litmus corpus against each bundled model, showing which shapes
// separate which adjacent model pair (the known answers pinning the
// SC/TSO/PSO/RMO checkers). The second half runs one short bug-free
// campaign per registered scenario — sharded across the fleet — as a
// cross-scenario soundness smoke: a relaxed machine checked against its
// own model must stay quiet.
func ScenarioMatrix(w io.Writer, sc Scale) error {
	models := memmodel.Names()
	fmt.Fprintf(w, "Scenario matrix: litmus-shape discrimination across models\n")
	fmt.Fprintf(w, "(F = outcome forbidden by the model, - = allowed; a shape separates\n")
	fmt.Fprintf(w, "the adjacent pair where F flips to -)\n\n")
	fmt.Fprintf(w, "%-16s", "Shape")
	for _, m := range models {
		fmt.Fprintf(w, " | %-4s", m)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 16+len(models)*7))
	for _, k := range litmus.Corpus() {
		t, ok := k.Materialize()
		if !ok {
			return fmt.Errorf("eval: corpus shape %s did not materialize", k.Name)
		}
		fmt.Fprintf(w, "%-16s", k.Name)
		for _, m := range models {
			arch, err := memmodel.ByName(m)
			if err != nil {
				return err
			}
			cell := "-"
			if litmus.Forbidden(t, arch) {
				cell = "F"
			}
			fmt.Fprintf(w, " | %-4s", cell)
		}
		fmt.Fprintln(w)
	}

	scens := scenario.All()
	fmt.Fprintf(w, "\nRegistered scenarios: bug-free soundness smoke (%d runs each)\n\n", sc.Budget)
	fmt.Fprintf(w, "%-12s %-28s %8s %10s %8s\n", "Scenario", "Identity", "Runs", "Coverage", "Quiet")
	cfg := core.ScaledConfig(core.GenGPAll, scenario.ForBug(machine.MESI, ""), 1024)
	cfg.MaxTestRuns = sc.Budget
	set, err := fleet.LocalMerged(context.Background(), core.NewSpec(cfg, scens, 1, sc.Seed),
		fleet.Options{Workers: sc.Parallel})
	if err != nil {
		return err
	}
	for i, s := range scens {
		res := set.Results[i]
		quiet := "yes"
		if res.Found {
			quiet = "NO: " + res.Detail
		}
		fmt.Fprintf(w, "%-12s %-28s %8d %9.1f%% %8s\n",
			s.Name, s.ID(), res.TestRuns, 100*res.TotalCoverage, quiet)
	}
	return nil
}

// Table6 reports maximum total transition coverage per protocol per
// generator, from bug-free campaigns. Each generator column is one
// campaign set over both protocols, so a column's numbers do not depend
// on which other columns are requested.
func Table6(w io.Writer, specs []GeneratorSpec, sc Scale) error {
	fmt.Fprintf(w, "Table 6 (scaled): max total transition coverage observed\n\n")
	fmt.Fprintf(w, "%-10s", "Protocol")
	protos := []machine.Protocol{machine.MESI, machine.TSOCC}
	scens := []scenario.Scenario{scenario.ForBug(protos[0], ""), scenario.ForBug(protos[1], "")}
	// best[c][p] is column c's maximum over protocol p's samples.
	var best [][]float64
	for _, spec := range specs {
		if spec.Litmus {
			continue
		}
		fmt.Fprintf(w, " | %-22s", spec.Name)
		cfg := core.ScaledConfig(spec.Kind, scens[0], spec.MemBytes)
		cfg.MaxTestRuns = sc.Budget
		set, err := fleet.LocalMerged(context.Background(), core.NewSpec(cfg, scens, sc.Samples, sc.Seed),
			fleet.Options{Workers: sc.Parallel})
		if err != nil {
			return err
		}
		col := make([]float64, len(protos))
		for i, res := range set.Results {
			p := i / sc.Samples
			col[p] = max(col[p], res.TotalCoverage)
		}
		best = append(best, col)
	}
	fmt.Fprintln(w)
	for p, proto := range protos {
		fmt.Fprintf(w, "%-10s", proto)
		for _, col := range best {
			fmt.Fprintf(w, " | %21.1f%%", 100*col[p])
		}
		fmt.Fprintln(w)
	}
	return nil
}
