package core

import (
	"testing"

	"repro/internal/machine"
)

// TestDeepSoundness is the extended false-positive gate: bug-free GP
// campaigns under both protocols and both memory layouts across many
// seeds. It is the regression net for the protocol race fixes. It takes
// several seconds, so -short skips it; CI runs it without -short.
func TestDeepSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("the extended sweep runs without -short")
	}
	// Seeds 1, 3, 4 and 6 are the base seeds at which bug-free tsocc-tso
	// campaigns at 1 KB reported ghb(TSO) cycles (benchmark/README.md,
	// "Known exclusions").
	for _, seed := range []int64{1, 2, 3, 4, 6, 40, 77, 123, 999, 4242, 31337} {
		for _, mem := range []int{1024, 8192} {
			for _, proto := range []string{"MESI", "TSO-CC"} {
				cfg := scaledConfig(GenGPAll, machine.Protocol(proto), "", mem, 350)
				cfg.Seed = seed
				res, err := RunCampaign(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Found {
					t.Errorf("%s mem=%d seed=%d FALSE POSITIVE after %d runs: %s / %s",
						proto, mem, seed, res.TestRuns, res.Source, res.Detail)
				}
			}
		}
	}
}
