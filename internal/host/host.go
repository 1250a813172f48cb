// Package host implements the simulation-aware guest workload and its
// host interface (§4, Table 1, Algorithm 2). The guest workload's
// generate–execute–verify–reset cycle is driven from the host side:
// tests are "compiled on the fly" into per-core programs
// (make_test_thread), threads are released in near lock-step by the
// host-assisted precise barrier, and verification and test-memory resets
// happen between iterations without consuming guest execution time.
//
// Both barrier implementations are provided: the host-assisted barrier
// releases threads with single-digit-cycle skew, while the simulated
// guest spin-barrier costs thousands of cycles per use and releases
// threads with large offsets — the §4 observation that host assistance
// is a mandatory prerequisite for very short tests.
package host

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/checker"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testgen"
)

// BarrierKind selects the thread-synchronization implementation.
type BarrierKind int

const (
	// HostBarrier is the host-assisted precise barrier (Table 1:
	// barrier_wait_precise with host assistance).
	HostBarrier BarrierKind = iota
	// GuestBarrier simulates a guest spin-barrier: large per-use
	// overhead and large release skew.
	GuestBarrier
)

func (b BarrierKind) String() string {
	if b == GuestBarrier {
		return "guest"
	}
	return "host"
}

// Options configures the per-test-run execution loop.
type Options struct {
	// Iterations is the number of executions per test-run (Table 3:
	// 10; scaled configurations use fewer).
	Iterations int
	// Barrier selects host-assisted or guest barriers.
	Barrier BarrierKind
	// MaxTicksPerIteration is the deadlock/livelock watchdog.
	MaxTicksPerIteration sim.Tick
}

// DefaultOptions returns the Table 3 run options.
func DefaultOptions() Options {
	return Options{
		Iterations:           10,
		Barrier:              HostBarrier,
		MaxTicksPerIteration: 30_000_000,
	}
}

// Barrier skew and overhead parameters. The host barrier releases
// threads within a few cycles; the guest barrier models a software
// sense-reversal barrier: every thread spins across the interconnect, so
// release skew and per-use overhead are orders of magnitude larger.
const (
	hostSkewMax     = 4
	guestSkewMax    = 4000
	guestBarrierGap = 20000
)

// ViolationSource classifies how a bug manifested.
type ViolationSource int

const (
	// SourceChecker is an MCM violation found by the axiomatic checker.
	SourceChecker ViolationSource = iota
	// SourceProtocol is a protocol-level error (invalid transition).
	SourceProtocol
	// SourceDeadlock is a watchdog deadlock/timeout.
	SourceDeadlock
)

func (s ViolationSource) String() string {
	switch s {
	case SourceChecker:
		return "mcm-violation"
	case SourceProtocol:
		return "protocol-error"
	default:
		return "deadlock"
	}
}

// Violation is a detected failure of any source.
type Violation struct {
	Source ViolationSource
	Err    error
}

func (v *Violation) Error() string {
	return fmt.Sprintf("%s: %v", v.Source, v.Err)
}

// RunResult summarizes one test-run (Iterations executions of one test).
type RunResult struct {
	// Violation is non-nil if the run exposed a bug.
	Violation *Violation
	// NDT is the run's average non-determinism (Definition 2).
	NDT float64
	// Ticks is the simulated time consumed by the run.
	Ticks sim.Tick
	// Iterations is how many iterations actually executed.
	Iterations int
	// Fastpath is the run's checker fast-path outcome tally (zero when
	// the fast path is disabled).
	Fastpath stats.Fastpath
}

// errorTrap collects protocol errors raised during a run.
type errorTrap struct {
	errs []error
}

func (t *errorTrap) ProtocolError(err error) { t.errs = append(t.errs, err) }

func (t *errorTrap) take() error {
	if len(t.errs) == 0 {
		return nil
	}
	err := t.errs[0]
	t.errs = nil
	return err
}

// Host drives the generate–execute–verify–reset cycle on a machine.
type Host struct {
	m    *machine.Machine
	rec  *checker.Recorder
	opts Options
	trap *errorTrap

	// obs receives per-phase wall-clock spans for every test-run:
	// compile under testgen, execution under sim, and verification
	// under fastcheck or check depending on whether the fast path
	// decided the iteration; nil discards them. Spans are a pure side
	// channel — they never influence simulation or verdicts, so results
	// are identical with a tracer or without.
	obs *obs.PhaseStats

	// Buffers RunTest reuses from one test-run to the next, and Reset from
	// one machine to the next. The cores read progs only while a run's
	// events execute, and every run loads its programs first, so the next
	// compile may overwrite them; lines is layout's line list, recomputed
	// only when a test brings another layout; offsets, one per core, is
	// read by RunPrograms before it returns.
	progs   []testgen.Program
	layout  memsys.Layout
	lines   []memsys.Addr
	offsets []sim.Tick

	runs uint64
}

// New wires a host around a machine and recorder. The machine must
// report protocol errors to trap and architectural events to rec.
func New(m *machine.Machine, rec *checker.Recorder, trap ErrorTrap, opts Options) *Host {
	h := &Host{rec: rec, trap: trap.trap}
	h.Reset(m, opts)
	return h
}

// Reset re-wires the host to drive m with opts, as New would, keeping
// its recorder, its trap and the buffers it has grown. No test-run may
// be in progress. New reaches its state through this call.
func (h *Host) Reset(m *machine.Machine, opts Options) {
	if opts.Iterations <= 0 {
		opts.Iterations = 1
	}
	if opts.MaxTicksPerIteration == 0 {
		opts.MaxTicksPerIteration = DefaultOptions().MaxTicksPerIteration
	}
	h.m, h.opts, h.obs, h.runs = m, opts, nil, 0
	h.trap.errs = h.trap.errs[:0]
	h.offsets = slices.Grow(h.offsets[:0], len(m.Cores))[:len(m.Cores)]
}

// ErrorTrap is an opaque handle pairing a machine with its host.
type ErrorTrap struct{ trap *errorTrap }

// ProtocolError implements coherence.ErrorSink.
func (t ErrorTrap) ProtocolError(err error) { t.trap.ProtocolError(err) }

// ProtoErr pops the oldest pending protocol error, or nil.
func (t ErrorTrap) ProtoErr() error { return t.trap.take() }

// NewErrorTrap returns a fresh trap to pass as a machine's error sink.
func NewErrorTrap() ErrorTrap { return ErrorTrap{trap: &errorTrap{}} }

// SetObs attaches (or, with nil, detaches) the phase-span tracer.
func (h *Host) SetObs(ps *obs.PhaseStats) { h.obs = ps }

// Machine returns the underlying machine.
func (h *Host) Machine() *machine.Machine { return h.m }

// FitAddrs returns the selective crossover's preferred address set of
// the last test-run (a fresh map; only the GP generators ask for it).
func (h *Host) FitAddrs() map[memsys.Addr]bool { return h.rec.FitAddrs() }

// Runs returns the number of completed test-runs.
func (h *Host) Runs() uint64 { return h.runs }

// barrierOffsets draws per-core release offsets for one iteration.
func (h *Host) barrierOffsets() []sim.Tick {
	rng := h.m.Sim.Rand()
	max := int64(hostSkewMax)
	if h.opts.Barrier == GuestBarrier {
		max = guestSkewMax
	}
	for i := range h.offsets {
		h.offsets[i] = sim.Tick(rng.Int63n(max + 1))
	}
	return h.offsets
}

// resetTestMem implements reset_test_mem (Table 1): zero the test
// memory's lines and flush all cache levels. Must run at quiescence.
func (h *Host) resetTestMem(lines []memsys.Addr) {
	h.m.ResetCaches()
	h.m.ZeroTestMemory(lines)
}

// RunTest executes one complete test-run per Algorithm 2: compile the
// test (make_test_thread), then Iterations times: precise barrier,
// execute, verify and reset conflict orders, reset test memory. The
// final iteration uses verify_reset_all semantics: run-level NDT state
// is computed and returned, then cleared.
func (h *Host) RunTest(t *testgen.Test) (RunResult, error) {
	// Phase spans: lap() attributes the section since the last mark to
	// one pipeline phase. The loop is the hottest in the system and
	// every fleet campaign traces it, so each lap is a single monotonic
	// clock read (time.Since on a monotonic base, not
	// time.Now, which also reads the wall clock) and spans accumulate in
	// locals, flushed to the shared tracer once per test-run.
	var (
		mark    time.Duration
		phaseNs [obs.NumPhases]int64
		phaseN  [obs.NumPhases]uint64
	)
	//mcvlint:allow nondeterm monotonic lap base for phase observability; results unaffected
	base := time.Now()
	defer func() {
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			h.obs.ObserveN(p, phaseNs[p], phaseN[p])
		}
	}()
	lap := func(p obs.Phase) {
		//mcvlint:allow nondeterm monotonic lap read for phase observability; results unaffected
		now := time.Since(base)
		phaseNs[p] += int64(now - mark)
		phaseN[p]++
		mark = now
	}

	progs, err := testgen.CompileInto(h.progs, t)
	if err != nil {
		return RunResult{}, err
	}
	h.progs = progs
	lap(obs.PhaseTestgen)
	start := h.m.Sim.Now()
	var res RunResult

	h.rec.ResetAll()
	if h.lines == nil || h.layout != t.Layout {
		h.layout, h.lines = t.Layout, t.Layout.Lines()
	}
	lines := h.lines
	h.resetTestMem(lines)

	for iter := 0; iter < h.opts.Iterations; iter++ {
		if h.opts.Barrier == GuestBarrier {
			// A software barrier burns simulated time before the
			// test even starts.
			h.m.Sim.ScheduleEvent(guestBarrierGap, sim.Nop, nil, 0)
			h.m.Quiesce()
		}
		if err := h.m.LoadPrograms(progs); err != nil {
			return RunResult{}, err
		}
		runErr := h.m.RunPrograms(h.barrierOffsets(), h.opts.MaxTicksPerIteration)
		if runErr == nil {
			h.m.Quiesce()
		}
		res.Iterations = iter + 1
		lap(obs.PhaseSim)

		if perr := h.trap.take(); perr != nil {
			res.Violation = &Violation{Source: SourceProtocol, Err: perr}
			break
		}
		if runErr != nil {
			var dead *sim.ErrDeadlock
			var timeout *sim.ErrTimeout
			if errors.As(runErr, &dead) || errors.As(runErr, &timeout) {
				res.Violation = &Violation{Source: SourceDeadlock, Err: runErr}
				break
			}
			return RunResult{}, runErr
		}
		// The verification lap is fastcheck when the clock-rule fast path
		// answered conclusively and check otherwise, read off the
		// recorder's own fast-path counter, so no checker-layer hook is
		// needed.
		fast0 := h.rec.Fastpath().Conclusive()
		v := h.rec.EndIteration()
		checkPhase := obs.PhaseCheck
		if h.rec.Fastpath().Conclusive() > fast0 {
			checkPhase = obs.PhaseFastCheck
		}
		lap(checkPhase)
		if v != nil {
			res.Violation = &Violation{Source: SourceChecker, Err: v}
			break
		}
		// resetTestMem is deliberately not lapped: the reset is sim-phase
		// work and the next iteration's sim lap absorbs it, saving one
		// clock read per iteration (the final iteration's reset goes
		// unattributed — it is a memset, not a measurement target).
		h.resetTestMem(lines)
	}

	res.NDT = h.rec.NDT()
	res.Fastpath = h.rec.Fastpath()
	res.Ticks = h.m.Sim.Now() - start
	h.runs++
	return res, nil
}
