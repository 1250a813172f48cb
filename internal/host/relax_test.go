package host

import (
	"testing"

	"repro/internal/bugs"
	"repro/internal/checker"
	"repro/internal/machine"
	"repro/internal/memmodel"
	"repro/internal/memsys"
)

// buildRelax assembles a host whose machine's cores realize model,
// checked against arch, which may be another model — the harness for
// showing that a model's core makes a real reordering (a stronger
// model's checker flags it) and that its own model absorbs it.
func buildRelax(t *testing.T, model string, arch memmodel.Arch, seed int64) *Host {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Model = model
	cfg.Seed = seed
	rec := checker.NewRecorder(arch)
	trap := NewErrorTrap()
	m, err := machine.New(cfg, nil, trap, rec)
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	return New(m, rec, trap, smallOpts())
}

// TestNonFIFOSBViolatesTSO: the PSO core's out-of-order store-buffer
// drain is a genuine W→W reordering — checking it against TSO (which it
// does not implement) must flag it quickly.
func TestNonFIFOSBViolatesTSO(t *testing.T) {
	h := buildRelax(t, "PSO", memmodel.TSO{}, 3)
	v := hunt(t, h, memsys.MustLayout(1024, 16), 60, 9)
	if v == nil {
		t.Fatal("non-FIFO store buffer not flagged under TSO within budget")
	}
	if v.Source != SourceChecker {
		t.Fatalf("unexpected violation source %v: %v", v.Source, v)
	}
}

// TestNonFIFOSBSoundUnderPSO: the PSO core checked against PSO — the
// model that permits the reordering — stays quiet.
func TestNonFIFOSBSoundUnderPSO(t *testing.T) {
	h := buildRelax(t, "PSO", memmodel.PSO{}, 4)
	if v := hunt(t, h, memsys.MustLayout(1024, 16), 25, 10); v != nil {
		t.Fatalf("false positive under PSO: %v", v)
	}
}

// TestNoLoadSquashViolatesPSO: the RMO core's squash-free loads are a
// genuine R→R reordering — PSO (which preserves R→R) must flag it.
func TestNoLoadSquashViolatesPSO(t *testing.T) {
	h := buildRelax(t, "RMO", memmodel.PSO{}, 3)
	v := hunt(t, h, memsys.MustLayout(1024, 16), 40, 9)
	if v == nil {
		t.Fatal("squash-free loads not flagged under PSO within budget")
	}
}

// TestRMORelaxSoundUnderRMO: the RMO core checked against RMO stays
// quiet.
func TestRMORelaxSoundUnderRMO(t *testing.T) {
	h := buildRelax(t, "RMO", memmodel.RMO{}, 3)
	if v := hunt(t, h, memsys.MustLayout(1024, 16), 25, 9); v != nil {
		t.Fatalf("false positive under RMO: %v", v)
	}
}

// TestStrongStoresSoundUnderSC: the SC core, which drains each store
// before it commits, checked against SC stays quiet.
func TestStrongStoresSoundUnderSC(t *testing.T) {
	h := buildRelax(t, "SC", memmodel.SC{}, 6)
	if v := hunt(t, h, memsys.MustLayout(1024, 16), 25, 11); v != nil {
		t.Fatalf("false positive under SC: %v", v)
	}
}

// TestDefaultCoreViolatesSC: the Table 2 TSO core's store buffer is
// visible to an SC checker — the reason the SC core drains its stores
// before commit.
func TestDefaultCoreViolatesSC(t *testing.T) {
	h := buildRelax(t, "TSO", memmodel.SC{}, 6)
	v := hunt(t, h, memsys.MustLayout(1024, 16), 40, 11)
	if v == nil {
		t.Fatal("store buffer not flagged under SC within budget")
	}
}

// TestRelaxedBugStillFound: a real bug on a relaxed machine is still a
// bug — the LQ+no-TSO squash bug composes with the PSO core's store
// relaxation and the PSO checker still catches the R→R break.
func TestRelaxedBugStillFound(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Model = "PSO"
	set, err := bugs.SetFor("LQ+no-TSO")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Bugs = set
	cfg.Seed = 8
	rec := checker.NewRecorder(memmodel.PSO{})
	trap := NewErrorTrap()
	m, err := machine.New(cfg, nil, trap, rec)
	if err != nil {
		t.Fatal(err)
	}
	h := New(m, rec, trap, smallOpts())
	v := hunt(t, h, memsys.MustLayout(1024, 16), 60, 12)
	if v == nil {
		t.Fatal("LQ+no-TSO not found on the PSO-relaxed machine")
	}
}
