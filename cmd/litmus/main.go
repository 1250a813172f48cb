// Command litmus generates the diy-style x86-TSO litmus suite and
// optionally runs it against the simulated machine: a scenario checked
// against TSO (mesi-tso or tsocc-tso), with -bug injected into it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
)

func main() {
	show := flag.Bool("show", false, "print the generated suite and exit")
	scenarioFlag := flag.String("scenario", "mesi-tso", "scenario to run the suite on: one checked against TSO (mesi-tso | tsocc-tso)")
	bug := flag.String("bug", "", "bug to inject into the scenario (empty = none)")
	passes := flag.Int("passes", 20, "whole-suite passes")
	seed := flag.Int64("seed", 1, "seed")
	flag.Parse()
	usage := func(err error) {
		fmt.Fprintln(os.Stderr, "litmus:", err)
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		usage(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	suite := mcversi.LitmusSuite()
	if *show {
		var extra []string
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "show" {
				extra = append(extra, "-"+f.Name)
			}
		})
		if len(extra) > 0 {
			// -show runs nothing: a run flag would be silently ignored.
			usage(fmt.Errorf("-show takes no other flag, not %s", strings.Join(extra, " ")))
		}
		for i, t := range suite {
			fmt.Printf("#%d %s", i+1, t)
		}
		fmt.Printf("%d tests\n", len(suite))
		return
	}
	if *passes <= 0 {
		// Zero passes would report a vacuous "no forbidden outcome".
		usage(fmt.Errorf("-passes must be positive, got %d", *passes))
	}
	// The scenario rules name an unknown bug or a bug of the other
	// protocol; the suite's forbidden outcomes are TSO's.
	scen, err := mcversi.ScenarioByName(*scenarioFlag)
	if err != nil {
		usage(err)
	}
	scen = scen.Inject(*bug)
	if err := scen.Validate(); err != nil {
		usage(err)
	}
	if scen.Model != "TSO" {
		usage(fmt.Errorf("-scenario %s is checked against %s; the litmus suite needs a TSO scenario", *scenarioFlag, scen.Model))
	}
	cfg := mcversi.DefaultLitmusConfig(scen)
	cfg.MaxPasses = *passes
	res, err := mcversi.RunLitmus(cfg, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "litmus:", err)
		os.Exit(1)
	}
	// A litmus execution lasts microseconds of simulated time.
	simUS := res.SimTicks.Seconds() * 1e6
	if res.Found {
		fmt.Printf("FOUND by %s via %s after %d executions (%.1f sim-µs)\n  %s\n",
			res.TestName, res.Source, res.Executions, simUS, res.Detail)
		return
	}
	fmt.Printf("no forbidden outcome in %d passes (%d executions, %.1f sim-µs)\n",
		res.Passes, res.Executions, simUS)
}
