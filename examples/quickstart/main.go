// Quickstart: Figure 1's message-passing example, checked two ways —
// first as a pure axiomatic question (is the outcome forbidden under
// TSO/SC?), then hunted live on the simulated machine with the LQ+no-TSO
// bug injected, which makes the forbidden outcome reachable.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// The litmus generator materializes MP from its critical cycle and
	// our own axiomatic checker confirms the outcome is forbidden.
	for _, t := range mcversi.LitmusSuite() {
		if t.Name == "MP" {
			fmt.Println("Figure 1, message passing, as generated from its critical cycle:")
			fmt.Println(t)
		}
	}

	// Hunt the canonical pipeline bug with pseudo-random tests: the LQ
	// ignores forwarded invalidations, so speculative loads commit
	// stale values and the checker sees the MP-style cycle.
	target := mcversi.DefaultScenario() // the Table 2 MESI machine against TSO
	target.Bugs = []string{"LQ+no-TSO"}
	cfg := mcversi.ScaledScenarioConfig(mcversi.GenRandom, target, 1024)
	cfg.Seed = 1
	cfg.MaxTestRuns = 200
	res, err := mcversi.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("campaign:", res)
	if res.Found {
		fmt.Println("violation:", res.Detail)
	}
}
