package sim_test

import (
	"container/heap"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// kernel is what kernelTrace drives: the wheel (*sim.Sim) and the heap
// reference model below both satisfy it.
type kernel interface {
	Now() sim.Tick
	ScheduleEvent(delay sim.Tick, h sim.Handler, arg any, aux uint64)
	Run()
	RunUntil(stop func() bool, maxTicks sim.Tick) error
	Pending() int
}

// heapSim is the reference event loop: a container/heap ordered by
// (tick, scheduling order), the contract the wheel must reproduce. It
// is deliberately the obvious implementation and shares no code with
// the wheel.
type heapSim struct {
	now sim.Tick
	seq uint64
	q   heapEvents
}

type heapEvent struct {
	at  sim.Tick
	seq uint64
	h   sim.Handler
	arg any
	aux uint64
}

type heapEvents []heapEvent

func (q heapEvents) Len() int { return len(q) }
func (q heapEvents) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q heapEvents) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *heapEvents) Push(x any)   { *q = append(*q, x.(heapEvent)) }
func (q *heapEvents) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

func (s *heapSim) Now() sim.Tick { return s.now }
func (s *heapSim) Pending() int  { return len(s.q) }

func (s *heapSim) ScheduleEvent(delay sim.Tick, h sim.Handler, arg any, aux uint64) {
	s.seq++
	heap.Push(&s.q, heapEvent{at: s.now + delay, seq: s.seq, h: h, arg: arg, aux: aux})
}

// runTo dispatches events in order until the queue drains (true) or
// the next one lies past limit (false).
func (s *heapSim) runTo(limit sim.Tick) bool {
	for len(s.q) > 0 {
		if s.q[0].at > limit {
			return false
		}
		e := heap.Pop(&s.q).(heapEvent)
		s.now = e.at
		e.h(e.arg, e.aux)
	}
	return true
}

func (s *heapSim) Run() { s.runTo(^sim.Tick(0)) }

// RunUntil mirrors Sim.RunUntil for a stop condition that never holds,
// the only shape kernelTrace uses.
func (s *heapSim) RunUntil(_ func() bool, maxTicks sim.Tick) error {
	limit := s.now + maxTicks
	if s.runTo(limit) {
		return &sim.ErrDeadlock{At: s.now}
	}
	return &sim.ErrTimeout{At: limit}
}

// TestWheelMatchesHeapKernel is the old-vs-new equivalence proof for
// the event kernel: identical randomized schedule/dispatch workloads
// driven into the timing wheel and into the (tick, seq) binary-heap
// reference must observe identical dispatch sequences — same ticks,
// same order, same-tick ties broken by scheduling order — including
// across overflow cascades, nested reschedules and RunUntil watchdog
// cuts.
func TestWheelMatchesHeapKernel(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		wheelTrace := kernelTrace(t, seed, sim.New(seed))
		heapTrace := kernelTrace(t, seed, &heapSim{})
		if len(wheelTrace) != len(heapTrace) {
			t.Fatalf("seed %d: wheel dispatched %d events, heap %d", seed, len(wheelTrace), len(heapTrace))
		}
		for i := range wheelTrace {
			if wheelTrace[i] != heapTrace[i] {
				t.Fatalf("seed %d: dispatch %d diverged: wheel %+v, heap %+v",
					seed, i, wheelTrace[i], heapTrace[i])
			}
		}
	}
}

type dispatch struct {
	at  sim.Tick
	tag uint64
}

// kernelTrace runs one randomized workload on s and returns its
// dispatch trace. The workload mixes the real event population's
// shapes: delay-0 chains, short latencies, window-straddling delays,
// far-future timers, events that reschedule from inside handlers, and
// a watchdog-bounded phase.
func kernelTrace(t *testing.T, seed int64, s kernel) []dispatch {
	t.Helper()
	rng := rand.New(rand.NewSource(seed * 7919))
	var trace []dispatch
	var h sim.Handler
	h = func(_ any, tag uint64) {
		trace = append(trace, dispatch{s.Now(), tag})
		if tag%5 == 0 && tag < 1_000_000 {
			// One nested reschedule per fifth event; the offset tag
			// keeps the chain from re-triggering.
			s.ScheduleEvent(sim.Tick(tag%3), h, nil, tag+1_000_000)
		}
	}
	delays := []sim.Tick{0, 0, 1, 3, 8, 17, 42, 100, 230, 2047, 2048, 2049, 5000, 20000, 100000}
	tag := uint64(0)
	for round := 0; round < 6; round++ {
		n := 50 + rng.Intn(200)
		for i := 0; i < n; i++ {
			d := delays[rng.Intn(len(delays))]
			tag++
			if rng.Intn(3) == 0 {
				tt := tag
				s.ScheduleEvent(d, sim.InvokeFunc, func() { trace = append(trace, dispatch{s.Now(), tt + 1<<32}) }, 0)
			} else {
				s.ScheduleEvent(d, h, nil, tag)
			}
		}
		if round%2 == 0 {
			// Watchdog cut mid-queue: both kernels must stop at the
			// same boundary and resume identically.
			if err := s.RunUntil(func() bool { return false }, sim.Tick(500+rng.Intn(3000))); err == nil {
				t.Fatalf("seed %d: RunUntil finished without watchdog", seed)
			}
		} else {
			s.Run()
		}
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("seed %d: %d events left pending", seed, s.Pending())
	}
	return trace
}

// TestResetReplaysANewSim: a simulator reset in the middle of a run —
// ring and overflow tier both occupied, clock advanced, random source
// drawn from — dispatches the next workload exactly as a new one does,
// draws the same random numbers, and schedules out of the nodes it
// already owns.
func TestResetReplaysANewSim(t *testing.T) {
	nop := sim.Handler(func(any, uint64) {}) // a pure time-keeping event
	for seed := int64(0); seed < 5; seed++ {
		want := kernelTrace(t, seed, sim.New(seed))
		wantRand := sim.New(seed).Rand().Int63()

		s := sim.New(seed + 100)
		kernelTrace(t, seed+100, s)
		for i := 0; i < 500; i++ {
			s.ScheduleEvent(sim.Tick(i*37), nop, nil, 0) // out to tick 18 463: ring and overflow
		}
		if err := s.RunUntil(func() bool { return false }, 1000); err == nil {
			t.Fatal("RunUntil finished without watchdog")
		}
		s.Rand().Int63()
		if s.Pending() == 0 {
			t.Fatal("nothing left queued; the reset has nothing to discard")
		}

		s.Reset(seed)
		if s.Now() != 0 || s.Pending() != 0 || s.Executed() != 0 {
			t.Fatalf("after Reset: tick %d, %d pending, %d executed", s.Now(), s.Pending(), s.Executed())
		}
		if _, ok := s.NextEventTime(); ok {
			t.Fatal("after Reset: an event is still due")
		}
		if got := s.Rand().Int63(); got != wantRand {
			t.Fatalf("seed %d: first draw after Reset %d, new simulator draws %d", seed, got, wantRand)
		}
		if n := testing.AllocsPerRun(5, func() {
			for i := 0; i < 300; i++ {
				s.ScheduleEvent(sim.Tick(i*37), nop, nil, 0)
			}
			s.Reset(seed)
		}); n != 0 {
			t.Fatalf("schedule-and-discard allocates %.0f objects per round: Reset lost the queued nodes", n)
		}
		got := kernelTrace(t, seed, s)
		if len(got) != len(want) {
			t.Fatalf("seed %d: reset simulator dispatched %d events, a new one %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch %d diverged: reset %+v, new %+v", seed, i, got[i], want[i])
			}
		}
	}
}
