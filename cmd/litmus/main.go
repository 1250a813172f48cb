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
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "litmus: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	suite := mcversi.LitmusSuite()
	if *show {
		for i, t := range suite {
			fmt.Printf("#%d %s", i+1, t)
		}
		fmt.Printf("%d tests\n", len(suite))
		return
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
