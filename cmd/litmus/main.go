// Command litmus generates the diy-style x86-TSO litmus suite and
// optionally runs it against the simulated machine.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
)

func main() {
	show := flag.Bool("show", false, "print the generated suite and exit")
	proto := flag.String("protocol", "MESI", "protocol: MESI | TSO-CC")
	bug := flag.String("bug", "", "bug to inject (empty = none)")
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
	// The suite runs the TSO machine under -protocol with -bug injected:
	// the scenario rules name an unknown protocol or bug, or a bug of the
	// other protocol.
	cfg := mcversi.DefaultLitmusConfig(mcversi.Protocol(*proto))
	if *bug != "" {
		cfg.Scenario.Bugs = []string{*bug}
	}
	if err := cfg.Scenario.Validate(); err != nil {
		usage(err)
	}
	cfg.MaxPasses = *passes
	res, err := mcversi.RunLitmus(cfg, "", *seed)
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
