// Command tables regenerates the paper's evaluation tables (4, 5 and 6)
// at a configurable scale, plus the scenario-matrix report (-table
// matrix): litmus-shape discrimination across SC/TSO/PSO/RMO and a
// bug-free soundness smoke over every registered scenario. See
// EXPERIMENTS.md for paper-vs-measured.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bugs"
	"repro/internal/eval"
)

func main() {
	table := flag.String("table", "4", "table to regenerate: 4, 5, 6 or matrix")
	full := flag.Bool("full", false, "use the full reproduction scale (slower)")
	parallel := flag.Int("parallel", 0, "fleet workers sharding table cells (0 = all cores, 1 = sequential)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "tables: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "tables: -parallel must not be negative, got %d\n", *parallel)
		os.Exit(2)
	}

	sc := eval.QuickScale()
	if *full {
		sc = eval.FullScale()
	}
	sc.Parallel = *parallel
	var err error
	switch *table {
	case "4":
		err = eval.Table4(os.Stdout, eval.Columns(), bugs.All(), sc)
	case "5":
		err = eval.Table5(os.Stdout, eval.Columns(), bugs.All(), sc, []int{100, 400, 1000})
	case "6":
		err = eval.Table6(os.Stdout, eval.Columns(), sc)
	case "matrix":
		err = eval.ScenarioMatrix(os.Stdout, sc)
	default:
		fmt.Fprintf(os.Stderr, "tables: unknown table %q (4, 5, 6 or matrix)\n", *table)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}
