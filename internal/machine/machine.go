// Package machine assembles the full simulated system of Table 2: eight
// out-of-order cores with private L1s, eight shared L2/directory tiles
// (NUCA), a 2×4 mesh interconnect and a memory controller, under either
// the MESI or the TSO-CC coherence protocol.
package machine

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/bugs"
	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/interconnect"
	"repro/internal/memmodel"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/testgen"
)

// Protocol selects the coherence protocol.
type Protocol string

// Protocols under study.
const (
	MESI  Protocol = "MESI"
	TSOCC Protocol = "TSO-CC"
)

// Protocols returns the valid protocol names.
func Protocols() []Protocol { return []Protocol{MESI, TSOCC} }

// ProtocolNames renders the valid protocol names for error messages.
func ProtocolNames() string {
	names := make([]string, 0, 2)
	for _, p := range Protocols() {
		names = append(names, string(p))
	}
	return strings.Join(names, ", ")
}

// Table 2's shape: every machine has it. Only what Config holds varies.
const (
	// Cores is the core count, one test thread each.
	Cores = 8
	// tiles is the shared L2/directory tile count, one per mesh node.
	tiles = 8
	// l1Size/l1Ways give each private L1 (32 KB, 4-way); l2TileSize/
	// l2Ways each L2 tile (128 KB, 4-way).
	l1Size, l1Ways     = 32 * 1024, 4
	l2TileSize, l2Ways = 128 * 1024, 4
)

// Config is what varies between machines: the protocol, the memory
// model the cores implement, the injected bugs and the seed. Everything
// else is Table 2.
type Config struct {
	// Protocol selects MESI or TSO-CC.
	Protocol Protocol
	// Model names the memory model the cores realize (one of
	// memmodel.Names()); it fixes their orderings (see package cpu).
	Model string
	// Bugs are the enabled bug injections.
	Bugs bugs.Set
	// Seed drives all simulation randomness.
	Seed int64
}

// DefaultConfig returns the Table 2 system: MESI, TSO, bug-free.
func DefaultConfig() Config {
	return Config{Protocol: MESI, Model: "TSO"}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Protocol != MESI && c.Protocol != TSOCC {
		return fmt.Errorf("machine: unknown protocol %q (valid: %s)", c.Protocol, ProtocolNames())
	}
	if !slices.Contains(memmodel.Names(), c.Model) {
		return fmt.Errorf("machine: unknown model %q (valid: %s)", c.Model, strings.Join(memmodel.Names(), ", "))
	}
	return nil
}

// controller is any cache level: dropped between tests, reset between
// campaigns.
type controller interface {
	ResetCaches()
	Reset(cov coherence.CoverageSink, errs coherence.ErrorSink)
}

// Machine is the assembled system.
type Machine struct {
	Cfg   Config
	Sim   *sim.Sim
	Net   *interconnect.Network
	Mem   *memsys.Memory
	Ctrl  *coherence.MemCtrl
	L1s   []coherence.CacheL1
	Cores []*cpu.Core

	// caches lists every L1 and L2 tile controller.
	caches []controller

	// Kit is the owner's: whatever it leaves here travels with the machine
	// through Release and Acquire, so what a campaign builds around a
	// machine (recorder, host buffers, random sources) is reused with it.
	// The machine never reads it.
	Kit any

	// running counts the cores RunPrograms still waits for; coreDone and
	// allDone, bound once by build, count them down and test for zero.
	running  int
	coreDone func()
	allDone  func() bool
}

// New builds a machine. cov receives protocol transitions, errs receives
// protocol errors, obs receives architectural events from every core;
// any of them may be nil.
func New(cfg Config, cov coherence.CoverageSink, errs coherence.ErrorSink, obs cpu.Observer) (*Machine, error) {
	m, err := build(cfg)
	if err != nil {
		return nil, err
	}
	m.Reset(cfg.Seed, cov, errs, obs)
	return m, nil
}

// build allocates and wires a machine's components. It decides nothing
// a campaign can observe: seed, sinks and every counter are set by
// Reset, which New calls next and an Acquire caller calls on whatever
// machine it got.
func build(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := new(sim.Sim) // seeded by reset
	net := interconnect.New(s)
	mem := memsys.NewMemory()
	m := &Machine{Cfg: cfg, Sim: s, Net: net, Mem: mem}
	m.coreDone = func() { m.running-- }
	m.allDone = func() bool { return m.running == 0 }

	// One message pool for the whole machine: a message is allocated by
	// its sender and released by its consumer, usually another
	// controller.
	msgs := coherence.NewMsgPool()
	ctrl, err := coherence.NewMemCtrl(s, net, mem, msgs)
	if err != nil {
		return nil, err
	}
	m.Ctrl = ctrl

	pos := func(i int) (int, int) { return i / interconnect.Cols, i % interconnect.Cols }
	cpuCfg := cpu.Config{Model: cfg.Model, Bugs: cfg.Bugs}

	for i := 0; i < Cores; i++ {
		row, col := pos(i)
		var l1 interface {
			coherence.CacheL1
			controller
		}
		ccfg := coherence.Config{
			ID: i, Cores: Cores, Tiles: tiles,
			SizeBytes: l1Size, Ways: l1Ways,
			Bugs: cfg.Bugs, Msgs: msgs,
		}
		switch cfg.Protocol {
		case MESI:
			l1, err = coherence.NewMESIL1(s, net, ccfg, row, col)
		case TSOCC:
			l1, err = coherence.NewTSOCCL1(s, net, ccfg, row, col)
		}
		if err != nil {
			return nil, err
		}
		m.L1s = append(m.L1s, l1)
		m.caches = append(m.caches, l1)
		m.Cores = append(m.Cores, cpu.New(i, s, l1, cpuCfg, nil))
	}

	for t := 0; t < tiles; t++ {
		row, col := pos(t)
		var l2 controller
		ccfg := coherence.Config{
			ID: t, Cores: Cores, Tiles: tiles,
			SizeBytes: l2TileSize, Ways: l2Ways,
			Bugs: cfg.Bugs, Msgs: msgs,
		}
		switch cfg.Protocol {
		case MESI:
			l2, err = coherence.NewMESIL2(s, net, ccfg, row, col)
		case TSOCC:
			l2, err = coherence.NewTSOCCL2(s, net, ccfg, row, col)
		}
		if err != nil {
			return nil, err
		}
		m.caches = append(m.caches, l2)
	}
	return m, nil
}

// Reset puts the machine in the state a campaign starts from: tick
// zero, empty event queue, random source at seed, idle network, zero
// memory, empty caches, idle cores, every counter at zero, reporting to
// the given sinks (any may be nil). It is the one initialisation path —
// New runs it on what build allocated, a campaign on the machine
// Acquire handed it, which some other campaign may have used — so a
// reused machine replays a new one event for event. Everything
// allocated stays: event, message and request free lists, cache ways,
// memory lines.
func (m *Machine) Reset(seed int64, cov coherence.CoverageSink, errs coherence.ErrorSink, obs cpu.Observer) {
	m.Cfg.Seed = seed
	m.Sim.Reset(seed)
	m.Net.Reset()
	m.Ctrl.Reset()
	for _, c := range m.caches {
		c.Reset(cov, errs)
	}
	for _, c := range m.Cores {
		c.Reset(obs)
	}
}

// maxIdle bounds the idle list: enough for every worker of a wide fleet
// to find its last machine again across a handful of scenarios, small
// enough (a machine at rest is a few hundred kB) not to matter.
const maxIdle = 16

// idle holds machines between campaigns, most recently released last.
// It is a plain bounded list rather than a sync.Pool so that what a
// process allocates does not depend on when the collector ran.
var idle struct {
	sync.Mutex
	list []*Machine
}

// key is what two machines must share to stand in for each other:
// everything build reads.
func (c Config) key() Config {
	c.Seed = 0
	return c
}

// Acquire takes the machine Release parked most recently at cfg's
// configuration (the seed aside), or builds one. The caller owns it until
// it hands it to Release and must Reset it before use. A parked machine
// comes back with the Kit it was parked with; a built one has none.
func Acquire(cfg Config) (*Machine, error) {
	key := cfg.key()
	idle.Lock()
	for i := len(idle.list) - 1; i >= 0; i-- {
		if m := idle.list[i]; m.Cfg.key() == key {
			idle.list = slices.Delete(idle.list, i, i+1)
			idle.Unlock()
			return m, nil
		}
	}
	idle.Unlock()
	return build(cfg)
}

// Release parks m for a later Acquire. The caller must be m's only user
// and must not touch it again. Only a machine that ended clean may be
// released — no protocol error, no watchdog, no failed run; one with
// events still queued is dropped here regardless. When the list is full
// the machine idle longest makes room.
func Release(m *Machine) {
	if m.Sim.Pending() != 0 {
		return
	}
	// Let go of the finished campaign's sinks now: an idle machine must
	// not keep a tracker or a recorder's verdict memo alive. (Its kit
	// keeps the recorder, which its owner disarmed before parking it.)
	m.Reset(0, nil, nil, nil)
	idle.Lock()
	defer idle.Unlock()
	if len(idle.list) == maxIdle {
		idle.list = slices.Delete(idle.list, 0, 1)
	}
	idle.list = append(idle.list, m)
}

// Transitions returns the protocol's transition vocabulary: its
// "controller:state:event" names in TransitionID order, the coverage
// denominator. The slice is shared, numbered once per protocol, and
// must not be modified.
func Transitions(p Protocol) []string {
	if p == TSOCC {
		return coherence.TSOCCTransitions()
	}
	return coherence.MESITransitions()
}

// ResetCaches drops every cache level without traffic. Must only be
// called at quiescence (between test executions).
func (m *Machine) ResetCaches() {
	for _, c := range m.caches {
		c.ResetCaches()
	}
}

// ZeroTestMemory writes initial (zero) values over a test layout's
// lines (layout.Lines(), computed once by the caller — the reset runs
// after every iteration) and forgets their timestamp metadata,
// implementing the memory half of reset_test_mem.
func (m *Machine) ZeroTestMemory(lines []memsys.Addr) {
	for _, line := range lines {
		m.Mem.WriteLine(line, memsys.LineData{})
		m.Ctrl.ClearMeta(line)
	}
}

// LoadPrograms installs one compiled program per core; missing programs
// leave cores idle.
func (m *Machine) LoadPrograms(progs []testgen.Program) error {
	if len(progs) > len(m.Cores) {
		return fmt.Errorf("machine: %d programs for %d cores", len(progs), len(m.Cores))
	}
	for i, core := range m.Cores {
		if i < len(progs) {
			core.Load(progs[i])
		} else {
			core.Load(nil)
		}
	}
	return nil
}

// RunPrograms starts every core with its offset and runs the simulation
// until all cores are done, with a watchdog. Offsets model barrier
// release skew.
func (m *Machine) RunPrograms(offsets []sim.Tick, maxTicks sim.Tick) error {
	m.running = 0
	for i, core := range m.Cores {
		var off sim.Tick
		if i < len(offsets) {
			off = offsets[i]
		}
		if core.Done() {
			continue
		}
		m.running++
		core.Start(off, m.coreDone)
	}
	if m.running == 0 {
		return nil
	}
	return m.Sim.RunUntil(m.allDone, maxTicks)
}

// Quiesce drains all remaining simulation events (in-flight writebacks
// and acks after the cores are done).
func (m *Machine) Quiesce() { m.Sim.Run() }

// CommittedInstructions sums committed instruction counts across cores.
func (m *Machine) CommittedInstructions() uint64 {
	var n uint64
	for _, c := range m.Cores {
		n += c.Committed()
	}
	return n
}
