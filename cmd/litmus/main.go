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
	target := mcversi.Scenario{Protocol: mcversi.Protocol(*proto), Model: "TSO"}
	if *bug != "" {
		target.Bugs = []string{*bug}
	}
	if err := target.Validate(); err != nil {
		usage(err)
	}
	cfg := mcversi.DefaultLitmusConfig(mcversi.Protocol(*proto))
	cfg.MaxPasses = *passes
	res, err := mcversi.RunLitmus(cfg, *bug, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "litmus:", err)
		os.Exit(1)
	}
	if res.Found {
		fmt.Printf("FOUND by %s via %s after %d executions (%.4f sim-s)\n  %s\n",
			res.TestName, res.Source, res.Executions, res.SimTicks.Seconds(), res.Detail)
		return
	}
	fmt.Printf("no forbidden outcome in %d passes (%d executions, %.4f sim-s)\n",
		res.Passes, res.Executions, res.SimTicks.Seconds())
}
