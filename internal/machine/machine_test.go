package machine

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bugs"
	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/interconnect"
	"repro/internal/memmodel"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/testgen"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	// Table 2.
	if Cores != 8 || tiles != 8 {
		t.Errorf("cores/tiles = %d/%d, want 8/8", Cores, tiles)
	}
	if l1Size != 32*1024 || l1Ways != 4 {
		t.Errorf("L1 = %d/%d-way, want 32KB 4-way", l1Size, l1Ways)
	}
	if l2TileSize != 128*1024 || l2Ways != 4 {
		t.Errorf("L2 tile = %d/%d-way, want 128KB 4-way", l2TileSize, l2Ways)
	}
	if interconnect.Rows != 2 || interconnect.Cols != 4 {
		t.Errorf("mesh = %dx%d, want 2x4", interconnect.Rows, interconnect.Cols)
	}
	if interconnect.LinkLatency != 2 || interconnect.RouterLatency != 2 ||
		interconnect.JitterMax != 12 || interconnect.CongestionWindow != 1 {
		t.Errorf("link/router/jitter/congestion = %d/%d/%d/%d, want 2/2/12/1",
			interconnect.LinkLatency, interconnect.RouterLatency, interconnect.JitterMax, interconnect.CongestionWindow)
	}
	if cpu.ROBSize != 40 || cpu.LSQSize != 32 || cpu.SBSize != 8 || cpu.NoFIFOWays != 4 {
		t.Errorf("ROB/LSQ/SB/no-FIFO ways = %d/%d/%d/%d, want 40/32/8/4", cpu.ROBSize, cpu.LSQSize, cpu.SBSize, cpu.NoFIFOWays)
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = "bogus"
	if cfg.Validate() == nil {
		t.Error("bogus protocol accepted")
	}
	if _, err := New(cfg, nil, nil, nil); err == nil {
		t.Error("New built a machine with a bogus protocol")
	}
}

// TestConfigRefusesUnknownModels: a machine realizes one of the four
// models; an empty or unknown name builds nothing.
func TestConfigRefusesUnknownModels(t *testing.T) {
	for _, model := range memmodel.Names() {
		cfg := DefaultConfig()
		cfg.Model = model
		if err := cfg.Validate(); err != nil {
			t.Errorf("model %s refused: %v", model, err)
		}
	}
	for _, model := range []string{"", "POWER", "tso"} {
		cfg := DefaultConfig()
		cfg.Model = model
		if cfg.Validate() == nil {
			t.Errorf("model %q accepted", model)
		}
		if _, err := New(cfg, nil, nil, nil); err == nil {
			t.Errorf("New built a machine with model %q", model)
		}
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
		if len(Transitions(proto)) == 0 {
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
	progs := make([]testgen.Program, Cores+1)
	if err := m.LoadPrograms(progs); err == nil {
		t.Error("too many programs accepted")
	}
}

// TestTransitionsMatchProtocol: the coverage denominator a campaign
// tracks is the protocol's declared transition table, entry for entry.
func TestTransitionsMatchProtocol(t *testing.T) {
	for p, want := range map[Protocol][]string{
		MESI:  coherence.MESITransitions(),
		TSOCC: coherence.TSOCCTransitions(),
	} {
		if got := Transitions(p); len(want) == 0 || !slices.Equal(got, want) {
			t.Errorf("%s: coverage vocabulary has %d transitions, the protocol declares %d", p, len(got), len(want))
		}
	}
}

// acquire is Acquire plus the Reset its caller owes: the machine at
// cfg.Seed, reporting nowhere.
func acquire(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Reset(cfg.Seed, nil, nil, nil)
	return m
}

// emptyIdle starts a test from an empty idle list (it is process-wide).
func emptyIdle(t *testing.T) {
	t.Helper()
	idle.Lock()
	idle.list = nil
	idle.Unlock()
}

// observed is what a run leaves visible from outside the machine.
type observed struct {
	now           sim.Tick
	events        uint64
	committed     uint64
	sent          [3]uint64
	reads, writes uint64
	words         [4]uint64
}

// runPingPong runs a four-core store/load/RMW exchange over two lines,
// long enough to draw jitter, evict nothing and touch every layer, then
// reports what it left behind.
func runPingPong(t *testing.T, m *Machine, rounds int) observed {
	t.Helper()
	pool := memsys.MustLayout(512, 16).Pool()
	progs := make([]testgen.Program, 4)
	for tid := range progs {
		for i := 0; i < rounds; i++ {
			a := pool[(tid+i)%4*4] // four words over two lines
			kind := []testgen.OpKind{testgen.OpWrite, testgen.OpRead, testgen.OpRMW, testgen.OpRead}[(tid+i)%4]
			in := testgen.Instr{Kind: kind, Addr: a, DepLoad: -1}
			if kind != testgen.OpRead {
				in.WriteID = testgen.WriteIDFor(tid, i)
			}
			progs[tid] = append(progs[tid], in)
		}
	}
	if err := m.LoadPrograms(progs); err != nil {
		t.Fatal(err)
	}
	if err := m.RunPrograms([]sim.Tick{0, 1, 2, 3}, 10_000_000); err != nil {
		t.Fatalf("RunPrograms: %v", err)
	}
	m.Quiesce()
	o := observed{now: m.Sim.Now(), events: m.Sim.Executed(), committed: m.CommittedInstructions()}
	for v := range o.sent {
		o.sent[v] = m.Net.Sent(interconnect.VNet(v))
	}
	o.reads, o.writes = m.Ctrl.Stats()
	m.ResetCaches() // flushes nothing: read what reached memory
	for i := range o.words {
		o.words[i] = m.Mem.ReadWord(pool[i*4])
	}
	return o
}

// TestAcquireResetsAUsedMachine: a machine that ran one workload at one
// seed, was released and acquired at another seed is, from outside, the
// machine New builds at that seed — on both protocols (TSO-CC carries
// timestamps and epochs across ResetCaches, which a campaign reset must
// rewind).
func TestAcquireResetsAUsedMachine(t *testing.T) {
	for _, proto := range Protocols() {
		t.Run(string(proto), func(t *testing.T) {
			emptyIdle(t)
			cfg := DefaultConfig()
			cfg.Protocol = proto
			cfg.Seed = 5
			fresh, err := New(cfg, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := runPingPong(t, fresh, 60)

			other := cfg
			other.Seed = 77
			used := acquire(t, other)
			if got := runPingPong(t, used, 90); got == want {
				t.Fatal("the warm-up run is indistinguishable from the reference; the test shows nothing")
			}
			Release(used)

			again := acquire(t, cfg)
			if again != used {
				t.Fatal("Acquire built a machine with one idle at the same configuration")
			}
			if again.Cfg != cfg {
				t.Errorf("reused machine reports config %+v, want %+v", again.Cfg, cfg)
			}
			if got := runPingPong(t, again, 60); got != want {
				t.Errorf("reused machine: %+v\nnew machine:    %+v", got, want)
			}
		})
	}
}

// TestReleaseKeepsOnlyQuiescentMachines: a machine with events still
// queued (a wedged or aborted run) never enters the idle list.
func TestReleaseKeepsOnlyQuiescentMachines(t *testing.T) {
	emptyIdle(t)
	cfg := DefaultConfig()
	m, err := New(cfg, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Sim.ScheduleEvent(10, func(any, uint64) {}, nil, 0)
	Release(m)
	if n := len(idle.list); n != 0 {
		t.Fatalf("idle list holds %d machines after releasing one with a pending event", n)
	}
	m.Quiesce()
	Release(m)
	if got, err := Acquire(cfg); err != nil || got != m {
		t.Fatalf("a quiescent machine was not kept: got %p, %v, want %p", got, err, m)
	}
}

// TestIdleListIsBounded: fifty configurations pass through; the list
// never grows past maxIdle and keeps the most recent ones.
func TestIdleListIsBounded(t *testing.T) {
	emptyIdle(t)
	// Two protocols times four models times the first seven bugs: fifty
	// distinct configurations.
	cfgAt := func(i int) Config {
		cfg := DefaultConfig()
		cfg.Protocol = Protocols()[i&1]
		cfg.Model = memmodel.Names()[i>>1&3]
		bugs.All()[i>>3].Enable(&cfg.Bugs)
		return cfg
	}
	for i := 0; i < 50; i++ {
		Release(acquire(t, cfgAt(i)))
		if n := len(idle.list); n > maxIdle {
			t.Fatalf("idle list holds %d machines after %d configurations, bound %d", n, i+1, maxIdle)
		}
	}
	if n := len(idle.list); n != maxIdle {
		t.Fatalf("idle list holds %d machines, want it full at %d", n, maxIdle)
	}
	for k, m := range idle.list {
		if want := cfgAt(50 - maxIdle + k); m.Cfg != want {
			t.Errorf("idle slot %d holds %+v, want %+v (oldest evicted first)", k, m.Cfg, want)
		}
	}
}

// TestKitTravelsWithItsMachine: a parked machine comes back with its kit;
// a machine built at another configuration has none.
func TestKitTravelsWithItsMachine(t *testing.T) {
	emptyIdle(t)
	cfg := DefaultConfig()
	m := acquire(t, cfg)
	m.Kit = "kit"
	Release(m)
	other := cfg
	other.Protocol = TSOCC
	if o := acquire(t, other); o == m || o.Kit != nil {
		t.Fatalf("a new machine at another configuration came with kit %v", o.Kit)
	}
	if got := acquire(t, cfg); got != m || got.Kit != "kit" {
		t.Fatalf("parked machine came back as %p with kit %v, want %p with its kit", got, got.Kit, m)
	}
}

// TestRunProgramsAllocatesNothing: once a machine has run a test, running
// it again — reset, load, run, drain, clear — allocates nothing. (The
// reset replays the same run: a run at another point of the random
// stream may need one more in-flight record than any run before it.)
func TestRunProgramsAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 9
	m, err := New(cfg, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	layout := memsys.MustLayout(1024, 16)
	g, err := testgen.NewGenerator(testgen.Config{Size: 256, Threads: Cores, Layout: layout}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	progs, err := testgen.Compile(g.NewTest())
	if err != nil {
		t.Fatal(err)
	}
	lines := layout.Lines()
	offsets := make([]sim.Tick, Cores)
	run := func() {
		m.Reset(cfg.Seed, nil, nil, nil)
		if err := m.LoadPrograms(progs); err != nil {
			t.Fatal(err)
		}
		if err := m.RunPrograms(offsets, 10_000_000); err != nil {
			t.Fatal(err)
		}
		m.Quiesce()
		m.ResetCaches()
		m.ZeroTestMemory(lines)
	}
	run() // grow the free lists
	if got := testing.AllocsPerRun(10, run); got != 0 {
		t.Errorf("a steady-state run allocates %.1f objects, want 0", got)
	}
}
