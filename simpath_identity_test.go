package mcversi

// Machine-level identity guard for the simulator access path. The
// hashes below were recorded on the commit before the cache arrays went
// sparse, protocol dispatch and the network's channel table went dense,
// and coherence messages, L1 requests and recorder state became
// reusable. None of that may change a simulated event, so every
// campaign here must keep producing the byte-identical core.Result it
// produced then: same violations with the same error text, same tick
// and instruction counts, same coverage, NDT and fitness floats, same
// collective-checking tallies.

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core"
)

// resultHash fingerprints a campaign result. core.Result holds only
// scalars, strings and the Dedupe counter struct, so %+v is a stable
// rendering.
func resultHash(r core.Result) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", r))))[:16]
}

func TestSimPathIdentity(t *testing.T) {
	type pin struct {
		seed int64
		want string
	}
	cases := []struct {
		name string
		cfg  func(t *testing.T) CampaignConfig
		runs int
		pins []pin
	}{
		// Every registered protocol × model scenario under GP feedback
		// with collective checking on: the Dedupe tallies pin the
		// signature stream, SumFitness the coverage stream.
		{"mesi-sc", scenarioCfg("mesi-sc", 1024), 40, []pin{{1, "7eab0e8f8fe58621"}, {7, "2cbde16cc806d0eb"}}},
		{"mesi-tso", scenarioCfg("mesi-tso", 1024), 40, []pin{{1, "bb63ffcded20ef2b"}, {7, "294a2eedd637254a"}}},
		{"mesi-pso", scenarioCfg("mesi-pso", 1024), 40, []pin{{1, "ea00cd8c3496d3af"}, {7, "a6ef62d95ae2256a"}}},
		{"mesi-rmo", scenarioCfg("mesi-rmo", 1024), 40, []pin{{1, "cedd05f06af6f398"}, {7, "799ba14ed4cb6087"}}},
		{"tsocc-tso", scenarioCfg("tsocc-tso", 1024), 40, []pin{{1, "6e423f223cbe4f45"}, {7, "fc1b45a75a643702"}}},
		{"tsocc-pso", scenarioCfg("tsocc-pso", 1024), 40, []pin{{1, "526648cf594f5e61"}, {7, "ee61102e0186bd67"}}},
		{"tsocc-rmo", scenarioCfg("tsocc-rmo", 1024), 40, []pin{{1, "740ea2c21d201c0f"}, {7, "ddce19e2d8a62854"}}},
		// 8KB layouts spread 128 lines over 16 partitions that collide
		// in one L1/L2 set each: Victim and replacement run after sparse
		// clears on both protocols.
		{"mesi-tso-8k", scenarioCfg("mesi-tso", 8192), 10, []pin{{3, "2a447eb644284422"}}},
		{"tsocc-tso-8k", scenarioCfg("tsocc-tso", 8192), 10, []pin{{3, "5cffaac3b794ea71"}}},
		// The PUTX-race hunt ends in an L2 invalid transition: the nil
		// dispatch cell and its error text.
		{"mesi-putx-race", func(*testing.T) CampaignConfig {
			return ScaledScenarioConfig(GenGPAll, bugScenario("MESI+PUTX-Race"), 8192)
		}, 300, []pin{{17, "64162102a48f53d6"}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, p := range tc.pins {
				cfg := tc.cfg(t)
				cfg.MaxTestRuns = tc.runs
				cfg.Seed = p.seed
				cfg.Memo = NewCollectiveMemo()
				res, err := core.RunCampaign(cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", p.seed, err)
				}
				if got := resultHash(res); got != p.want {
					t.Errorf("seed %d: result hash %s, want %s\n result: %+v", p.seed, got, p.want, res)
				}
			}
		})
	}
}

func scenarioCfg(name string, memBytes int) func(*testing.T) CampaignConfig {
	return func(t *testing.T) CampaignConfig {
		cfg := ScaledScenarioConfig(GenGPAll, mustScenario(t, name), memBytes)
		if memBytes > 1024 {
			cfg.Test.Size = 512 // enough accesses per set to force replacements
		}
		return cfg
	}
}
