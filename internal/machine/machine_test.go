package machine

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/testgen"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	// Table 2.
	if cfg.Cores != 8 {
		t.Errorf("Cores = %d, want 8", cfg.Cores)
	}
	if cfg.L1Size != 32*1024 || cfg.L1Ways != 4 {
		t.Errorf("L1 = %d/%d-way, want 32KB 4-way", cfg.L1Size, cfg.L1Ways)
	}
	if cfg.L2TileSize != 128*1024 || cfg.Tiles != 8 || cfg.L2Ways != 4 {
		t.Errorf("L2 = %dx%d/%d-way, want 128KB x8 4-way", cfg.L2TileSize, cfg.Tiles, cfg.L2Ways)
	}
	if cfg.Mesh.Rows != 2 {
		t.Errorf("mesh rows = %d, want 2", cfg.Mesh.Rows)
	}
	if cfg.CPU.LSQSize != 32 || cfg.CPU.ROBSize != 40 {
		t.Errorf("LSQ/ROB = %d/%d, want 32/40", cfg.CPU.LSQSize, cfg.CPU.ROBSize)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 0
	if cfg.Validate() == nil {
		t.Error("zero cores accepted")
	}
	cfg = DefaultConfig()
	cfg.Protocol = "bogus"
	if cfg.Validate() == nil {
		t.Error("bogus protocol accepted")
	}
	cfg = DefaultConfig()
	cfg.Cores = 100
	if cfg.Validate() == nil {
		t.Error("cores beyond mesh accepted")
	}
}

func TestNewBuildsBothProtocols(t *testing.T) {
	for _, proto := range []Protocol{MESI, TSOCC} {
		cfg := DefaultConfig()
		cfg.Protocol = proto
		m, err := New(cfg, nil, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if len(m.Cores) != 8 || len(m.L1s) != 8 {
			t.Fatalf("%s: cores/L1s = %d/%d", proto, len(m.Cores), len(m.L1s))
		}
		if len(m.Transitions()) == 0 {
			t.Errorf("%s: empty transition table", proto)
		}
	}
}

func TestRunProgramsAndReset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	m, err := New(cfg, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	layout := memsys.MustLayout(512, 16)
	pool := layout.Pool()
	progs := []testgen.Program{
		{{Kind: testgen.OpWrite, Addr: pool[0], WriteID: testgen.WriteIDFor(0, 0), DepLoad: -1}},
		{{Kind: testgen.OpRead, Addr: pool[0], DepLoad: -1}},
	}
	if err := m.LoadPrograms(progs); err != nil {
		t.Fatal(err)
	}
	if err := m.RunPrograms([]sim.Tick{0, 2}, 10_000_000); err != nil {
		t.Fatalf("RunPrograms: %v", err)
	}
	m.Quiesce()
	if m.CommittedInstructions() != 2 {
		t.Fatalf("committed = %d, want 2", m.CommittedInstructions())
	}
	// The written line reached the coherent domain; reset zeroes it.
	m.ResetCaches()
	m.ZeroTestMemory(layout.Lines())
	if got := m.Mem.ReadWord(pool[0]); got != 0 {
		t.Fatalf("after reset, mem = %d", got)
	}
}

func TestLoadProgramsRejectsTooMany(t *testing.T) {
	cfg := DefaultConfig()
	m, err := New(cfg, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	progs := make([]testgen.Program, cfg.Cores+1)
	if err := m.LoadPrograms(progs); err == nil {
		t.Error("too many programs accepted")
	}
}

func TestTransitionsMatchProtocol(t *testing.T) {
	cfgM := DefaultConfig()
	mm, err := New(cfgM, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(mm.Transitions()), len(coherence.MESITransitions()); got != want {
		t.Errorf("MESI transitions = %d, want %d", got, want)
	}
	cfgT := DefaultConfig()
	cfgT.Protocol = TSOCC
	mt, err := New(cfgT, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(mt.Transitions()), len(coherence.TSOCCTransitions()); got != want {
		t.Errorf("TSO-CC transitions = %d, want %d", got, want)
	}
}
