// Command tables regenerates the paper's evaluation tables (4, 5 and 6)
// at a configurable scale. See EXPERIMENTS.md for paper-vs-measured.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bugs"
	"repro/internal/eval"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it prints the table the flags name and returns
// the exit code (2 for a usage error).
func run(args []string, stdout, stderr io.Writer) int {
	table, sc, err := parse(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		fmt.Fprintln(stderr, "tables:", err)
		return 2
	}
	switch table {
	case "4":
		err = eval.Table4(stdout, eval.Columns(), bugs.All(), sc)
	case "5":
		err = eval.Table5(stdout, eval.Columns(), bugs.All(), sc, []int{100, 400, 1000})
	case "6":
		err = eval.Table6(stdout, eval.Columns(), sc)
	}
	if err != nil {
		fmt.Fprintln(stderr, "tables:", err)
		return 1
	}
	return 0
}

// parse reads the flags: the table to print and the scale to run it at.
func parse(args []string, stderr io.Writer) (string, eval.Scale, error) {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.String("table", "4", "table to regenerate: 4, 5 or 6")
	full := fs.Bool("full", false, "use the full reproduction scale (slower)")
	parallel := fs.Int("parallel", 0, "fleet workers sharding table cells (0 = all cores, 1 = sequential)")
	seed := fs.Int64("seed", eval.QuickScale().Seed, "base seed; sample i runs at a seed derived from it")
	if err := fs.Parse(args); err != nil {
		return "", eval.Scale{}, err
	}
	switch {
	case fs.NArg() > 0:
		return "", eval.Scale{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *parallel < 0:
		return "", eval.Scale{}, fmt.Errorf("-parallel must not be negative, got %d", *parallel)
	case *table != "4" && *table != "5" && *table != "6":
		return "", eval.Scale{}, fmt.Errorf("unknown table %q (4, 5 or 6)", *table)
	}
	sc := eval.QuickScale()
	if *full {
		sc = eval.FullScale()
	}
	sc.Parallel, sc.Seed = *parallel, *seed
	return *table, sc, nil
}
