// Bughunt: the headline McVerSi workflow — the GP generator with the
// selective crossover (McVerSi-ALL) hunting a replacement bug that only
// manifests with the eviction-heavy 8KB test memory (§6.1), comparing
// against the pseudo-random baseline under the same budget.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	const bug = "MESI,LQ+S,Replacement"
	// The paper's target — the Table 2 MESI machine checked against TSO —
	// with the bug injected.
	target := mcversi.DefaultScenario()
	target.Bugs = []string{bug}
	for _, gen := range []mcversi.GeneratorKind{mcversi.GenGPAll, mcversi.GenRandom} {
		cfg := mcversi.ScaledScenarioConfig(gen, target, 8192)
		cfg.Seed = 2
		cfg.MaxTestRuns = 900
		res, err := mcversi.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s hunting %s: %s\n", gen, bug, res)
	}
	fmt.Println()
	fmt.Println("The same bug is invisible at 1KB (no capacity evictions, Table 4):")
	cfg := mcversi.ScaledScenarioConfig(mcversi.GenGPAll, target, 1024)
	cfg.Seed = 2
	cfg.MaxTestRuns = 300
	res, err := mcversi.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s at 1KB: %s\n", mcversi.GenGPAll, res)
}
