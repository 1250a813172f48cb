// Litmusrun: the diy-litmus baseline of §5.2.2 — generate the x86-TSO
// suite from critical cycles, then run it against a machine with a
// litmus-visible bug (SQ+no-FIFO) and a litmus-invisible one
// (MESI,LQ+S,Replacement), reproducing the Table 4 contrast. An
// ordering bug is found as a checker violation that realises a test's
// forbidden outcome.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	suite := mcversi.LitmusSuite()
	fmt.Printf("generated %d x86-TSO litmus tests; the classics:\n", len(suite))
	for _, t := range suite {
		switch t.Name {
		case "MP", "SB", "2+2W", "IRIW", "SB+mfences":
			fmt.Print(t)
		}
	}

	for _, bug := range []string{"SQ+no-FIFO", "MESI,LQ+S,Replacement"} {
		cfg := mcversi.DefaultLitmusConfig(mcversi.MESI)
		cfg.MaxPasses = 8
		res, err := mcversi.RunLitmus(cfg, bug, 3)
		if err != nil {
			log.Fatal(err)
		}
		if res.Found {
			fmt.Printf("%-24s: FOUND by %s via %s (%d executions)\n", bug, res.TestName, res.Source, res.Executions)
		} else {
			fmt.Printf("%-24s: not found in %d passes (litmus-invisible, as in Table 4)\n", bug, res.Passes)
		}
	}
}
