package core

import (
	"context"
	"testing"

	"repro/internal/machine"
)

// TestRandTestRunAllocatesNothing: once a kit has run a campaign, a rand
// test-run on it — generate into the kit's buffer, compile, simulate,
// record, check, reset — allocates nothing.
func TestRandTestRunAllocatesNothing(t *testing.T) {
	cfg := scaledConfig(GenRandom, machine.MESI, "", 1024, 1<<30)
	cfg.Seed = 3
	warm, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Advance(context.Background(), 20); err != nil {
		t.Fatal(err)
	}
	warm.Release()

	camp, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer camp.Release()
	step := func() {
		if _, err := camp.Advance(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if got := testing.AllocsPerRun(20, step); got != 0 {
		t.Errorf("a rand test-run on a reused kit allocates %.1f objects, want 0", got)
	}
}
