package mcversi

// Machine-level identity guard for the simulator access path. The
// hashes below were recorded on the commit before the cache arrays went
// sparse, protocol dispatch and the network's channel table went dense,
// and coherence messages, L1 requests and recorder state became
// reusable. None of that may change a simulated event, so every
// campaign here must keep producing the byte-identical core.Result it
// produced then: same violations with the same error text, same tick
// and instruction counts, same coverage, NDT and fitness floats.
//
// The tsocc-* hashes were re-recorded twice since. First when TSO-CC stopped
// reporting violations on bug-free machines at 1 KB: fills that raced a
// self-invalidation are fetched again, exclusive grants apply the
// acquire rule, writebacks from an earlier owner are not absorbed, a
// store completes at its coherence point, and the core squashes loads
// forwarded from a store whose line was then invalidated. Then when the
// TSO-CC L2 gained a stale-writeback cell in IFS and IFX: the 8 KB
// campaign's events changed, and every tsocc-* coverage share moved with
// its denominator, which counts the cells. Both change TSO-CC only.
//
// Then every hash was re-recorded, with no change to the simulator, when
// resultHash stopped hashing %+v: Result.String made that render only
// five of the result's fields.

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// resultHash fingerprints every field of a campaign result, each written
// as name=%#v. %#v never calls Result.String, which prints only the
// verdict, test-runs, sim-seconds, coverage and maxNDT; SumFitness,
// Committed, SimTicks, LastNDT and Detail are hashed too.
func resultHash(r core.Result) string {
	v := reflect.ValueOf(r)
	var b strings.Builder
	for i := 0; i < v.NumField(); i++ {
		fmt.Fprintf(&b, "%s=%#v;", v.Type().Field(i).Name, v.Field(i).Interface())
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))[:16]
}

// identityPin is one recorded (seed, result hash) pair.
type identityPin struct {
	seed int64
	want string
}

// identityCase is one pinned campaign shape.
type identityCase struct {
	name string
	cfg  func(t *testing.T) CampaignConfig
	runs int
	pins []identityPin
}

func identityCases() []identityCase {
	return []identityCase{
		// Every registered protocol × model scenario under GP feedback:
		// SumFitness pins the coverage stream, SimTicks and Committed the
		// simulated events.
		{"mesi-sc", scenarioCfg("mesi-sc", 1024), 40, []identityPin{{1, "86d1b4d5a46723fb"}, {7, "1e188b54b4a88bf3"}}},
		{"mesi-tso", scenarioCfg("mesi-tso", 1024), 40, []identityPin{{1, "46dd88f543f6d451"}, {7, "452ca8d2999947d9"}}},
		{"mesi-pso", scenarioCfg("mesi-pso", 1024), 40, []identityPin{{1, "6d6aed00c3abfcc8"}, {7, "dc51ca2956576233"}}},
		{"mesi-rmo", scenarioCfg("mesi-rmo", 1024), 40, []identityPin{{1, "284529f179576a11"}, {7, "74f5555487a913f7"}}},
		{"tsocc-tso", scenarioCfg("tsocc-tso", 1024), 40, []identityPin{{1, "3720e8948e767012"}, {7, "d95ca4490aaeb4f5"}}},
		{"tsocc-pso", scenarioCfg("tsocc-pso", 1024), 40, []identityPin{{1, "8ae74615a074a5ba"}, {7, "77736cd2afca8399"}}},
		{"tsocc-rmo", scenarioCfg("tsocc-rmo", 1024), 40, []identityPin{{1, "6c2230a9d78d206f"}, {7, "d98f4fae879da828"}}},
		// 8KB layouts spread 128 lines over 16 partitions that collide
		// in one L1/L2 set each: Victim and replacement run after sparse
		// clears on both protocols.
		{"mesi-tso-8k", scenarioCfg("mesi-tso", 8192), 10, []identityPin{{3, "fd9c6bff0c890b72"}}},
		{"tsocc-tso-8k", scenarioCfg("tsocc-tso", 8192), 10, []identityPin{{3, "d57dbe679e3d5218"}}},
		// The PUTX-race hunt ends in an L2 invalid transition: the nil
		// dispatch cell and its error text.
		{"mesi-putx-race", func(*testing.T) CampaignConfig {
			return ScaledScenarioConfig(GenGPAll, bugScenario("MESI+PUTX-Race"), 8192)
		}, 300, []identityPin{{17, "4765c199e0df05fc"}}},
	}
}

func TestSimPathIdentity(t *testing.T) {
	for _, tc := range identityCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, p := range tc.pins {
				cfg := tc.cfg(t)
				cfg.MaxTestRuns = tc.runs
				cfg.Seed = p.seed
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

// pinnedCampaign builds tc's campaign at seed.
func pinnedCampaign(t *testing.T, tc identityCase, seed int64) *core.Campaign {
	t.Helper()
	cfg := tc.cfg(t)
	cfg.MaxTestRuns = tc.runs
	cfg.Seed = seed
	camp, err := core.NewCampaign(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return camp
}

// TestMachineReuseIdentity holds a reset machine to the hashes a new one
// produces. Every pinned campaign runs on the machine a campaign at
// another seed just gave back — dirty caches, advanced TSO-CC
// timestamps, grown free lists, a spent random source — and must still
// return its pinned core.Result. resultHash covers every field, so the
// pin already is the result a new machine produces (TestSimPathIdentity
// holds that). A campaign that ends in a violation must not give its
// machine back at all: the PUTX-race hunt stops on an L2 invalid
// transition with events still queued, and a forced watchdog leaves
// every core mid-program. Every pin also runs on the kit (recorder, host
// buffers, random sources) that a rand campaign, or a campaign at the
// other memory size, parked on its machine (onKitLeftBy).
// The subtests run one after another, so between a Release and the next
// NewCampaign nobody else takes from the process-wide idle list.
func TestMachineReuseIdentity(t *testing.T) {
	for _, tc := range identityCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range tc.pins {
				// Ten test-runs at another seed leave every layer used.
				short := tc
				short.runs = min(tc.runs, 10)
				warm := pinnedCampaign(t, short, p.seed+1000)
				used := warm.Host().Machine()
				wres, err := warm.Run()
				if err != nil {
					t.Fatalf("warm-up for seed %d: %v", p.seed, err)
				}
				warm.Release()

				camp := pinnedCampaign(t, tc, p.seed)
				m := camp.Host().Machine()
				if reused := m == used; reused == wres.Found {
					t.Fatalf("seed %d: warm-up found=%v, pinned campaign reused its machine=%v", p.seed, wres.Found, reused)
				}
				res, err := camp.Run()
				if err != nil {
					t.Fatalf("seed %d: %v", p.seed, err)
				}
				if got := resultHash(res); got != p.want {
					t.Errorf("seed %d on a used machine: result hash %s, want %s\n result: %+v", p.seed, got, p.want, res)
				}
				camp.Release()
				if res.Found {
					// The campaign ended in a violation: whoever asks next
					// gets some other machine and the same answer.
					again := pinnedCampaign(t, tc, p.seed)
					if again.Host().Machine() == m {
						t.Fatalf("seed %d: machine reused after %s", p.seed, res.Source)
					}
					if res, err = again.Run(); err != nil || resultHash(res) != p.want {
						t.Errorf("seed %d after a dropped machine: %+v, %v", p.seed, res, err)
					}
					again.Release()
				}
				for _, other := range otherShapes(t, tc) {
					onKitLeftBy(t, tc, p, other)
				}
			}
		})
	}

	t.Run("watchdog", func(t *testing.T) {
		tc := identityCases()[1] // mesi-tso
		cfg := tc.cfg(t)
		cfg.MaxTestRuns = tc.runs
		cfg.Seed = 99
		cfg.Host.MaxTicksPerIteration = 200 // no test finishes in 200 ticks
		wedged, err := core.NewCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := wedged.Host().Machine()
		res, err := wedged.Run()
		if err != nil || res.Source != "deadlock" || m.Sim.Pending() == 0 {
			t.Fatalf("forced watchdog: %+v, %v, %d events pending", res, err, m.Sim.Pending())
		}
		wedged.Release()
		for _, p := range tc.pins {
			camp := pinnedCampaign(t, tc, p.seed)
			if camp.Host().Machine() == m {
				t.Fatal("machine reused after a watchdog timeout")
			}
			res, err := camp.Run()
			if err != nil || resultHash(res) != p.want {
				t.Errorf("seed %d after a wedged machine: %+v, %v", p.seed, res, err)
			}
			camp.Release()
		}
	})
}

// otherShapes are campaigns on the pinned campaign's machine
// configuration whose kit it must be able to take over: the rand
// generator on the pinned scenario (the pins are all GP), and the pinned
// scenario at the other test-memory size, with that size's test length
// and two more iterations per test-run, so the host's buffers and the
// recorder's execution were last sized by other counts. A scenario's
// model fixes its cores, so no campaign against another model runs on
// the pinned machine.
func otherShapes(t *testing.T, tc identityCase) []CampaignConfig {
	pinned := tc.cfg(t)
	rnd := pinned
	rnd.Generator = GenRandom
	mem := 8192
	if pinned.Test.Layout.Size > 1024 {
		mem = 1024
	}
	resized := ScaledScenarioConfig(pinned.Generator, pinned.Scenario, mem)
	if mem > 1024 {
		resized.Test.Size = 512
	}
	resized.Host.Iterations += 2
	return []CampaignConfig{rnd, resized}
}

func onKitLeftBy(t *testing.T, tc identityCase, p identityPin, other CampaignConfig) {
	t.Helper()
	other.MaxTestRuns, other.Seed = 10, p.seed+2000
	left, err := core.NewCampaign(other)
	if err != nil {
		t.Fatal(err)
	}
	kitHost := left.Host()
	if res, err := left.Run(); err != nil || res.Found {
		t.Fatalf("seed %d: the %s campaign meant to leave its kit behind: %+v, %v", p.seed, res.Scenario, res, err)
	}
	left.Release()

	camp := pinnedCampaign(t, tc, p.seed)
	if camp.Host() != kitHost {
		t.Fatalf("seed %d: the pinned campaign did not take the kit a %s/%s campaign left", p.seed, other.Generator, other.Scenario.ID())
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatalf("seed %d: %v", p.seed, err)
	}
	if got := resultHash(res); got != p.want {
		t.Errorf("seed %d on a kit a %s/%s campaign left: result hash %s, want %s\n result: %+v", p.seed, other.Generator, other.Scenario.ID(), got, p.want, res)
	}
	camp.Release()
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
