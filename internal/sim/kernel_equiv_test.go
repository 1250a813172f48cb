package sim_test

import (
	"math/rand"
	"testing"

	"repro/internal/benchwork"
	"repro/internal/sim"
)

// TestWheelMatchesHeapKernel is the kernel-level half of the old-vs-new
// equivalence proof (the machine-level half runs whole campaigns at the
// repo root): identical randomized schedule/dispatch workloads driven
// into the timing wheel and into the retired binary heap
// (benchwork.HeapKernel via sim.NewWithKernel) must observe identical
// dispatch sequences — same ticks, same order, same-tick ties broken by
// scheduling order — including across overflow cascades, nested
// reschedules and RunUntil watchdog cuts.
func TestWheelMatchesHeapKernel(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		wheelTrace := kernelTrace(t, seed, sim.New(seed))
		heapTrace := kernelTrace(t, seed, sim.NewWithKernel(seed, benchwork.NewHeapKernel()))
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
func kernelTrace(t *testing.T, seed int64, s *sim.Sim) []dispatch {
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
