// Command litmus generates the diy-style x86-TSO litmus suite and
// optionally runs it against the simulated machine: a scenario checked
// against TSO (mesi-tso or tsocc-tso), with -bug injected into it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it prints the suite or the outcome of running it
// and returns the exit code (2 for a usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("litmus", flag.ContinueOnError)
	fs.SetOutput(stderr)
	show := fs.Bool("show", false, "print the generated suite and exit")
	scenarioFlag := fs.String("scenario", "mesi-tso", "scenario to run the suite on: one checked against TSO (mesi-tso | tsocc-tso)")
	bug := fs.String("bug", "", "bug to inject into the scenario (empty = none)")
	passes := fs.Int("passes", 20, "whole-suite passes")
	seed := fs.Int64("seed", 1, "seed")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "litmus:", err)
		return 2
	}
	if fs.NArg() > 0 {
		return usage(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}

	suite := mcversi.LitmusSuite()
	if *show {
		var extra []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "show" {
				extra = append(extra, "-"+f.Name)
			}
		})
		if len(extra) > 0 {
			// -show runs nothing: a run flag would be silently ignored.
			return usage(fmt.Errorf("-show takes no other flag, not %s", strings.Join(extra, " ")))
		}
		for i, t := range suite {
			fmt.Fprintf(stdout, "#%d %s", i+1, t)
		}
		fmt.Fprintf(stdout, "%d tests\n", len(suite))
		return 0
	}
	if *passes <= 0 {
		// Zero passes would report a vacuous "no forbidden outcome".
		return usage(fmt.Errorf("-passes must be positive, got %d", *passes))
	}
	// The scenario rules name an unknown bug or a bug of the other
	// protocol; the suite's forbidden outcomes are TSO's.
	scen, err := mcversi.ScenarioByName(*scenarioFlag)
	if err != nil {
		return usage(err)
	}
	scen = scen.Inject(*bug)
	if err := scen.Validate(); err != nil {
		return usage(err)
	}
	if scen.Model != "TSO" {
		return usage(fmt.Errorf("-scenario %s is checked against %s; the litmus suite needs a TSO scenario", *scenarioFlag, scen.Model))
	}
	cfg := mcversi.DefaultLitmusConfig(scen)
	cfg.MaxPasses = *passes
	res, err := mcversi.RunLitmus(cfg, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "litmus:", err)
		return 1
	}
	// A litmus execution lasts microseconds of simulated time.
	simUS := res.SimTicks.Seconds() * 1e6
	if res.Found {
		fmt.Fprintf(stdout, "FOUND by %s via %s after %d executions (%.1f sim-µs)\n  %s\n",
			res.TestName, res.Source, res.Executions, simUS, res.Detail)
		return 0
	}
	fmt.Fprintf(stdout, "no forbidden outcome in %d passes (%d executions, %.1f sim-µs)\n",
		res.Passes, res.Executions, simUS)
	return 0
}
