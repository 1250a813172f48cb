package benchwork

import (
	"container/heap"
	"testing"

	"repro/internal/sim"
)

// HeapKernel replicates the seed repo's binary-heap event queue — the
// pre-wheel kernel: a container/heap of (tick, seq)-ordered event
// structs, paying O(log n) comparisons plus interface boxing per push
// and pop. It is kept here for the same reason checker/naive and
// legacyCoverageTracker are kept: as the A/B baseline behind
// BENCH_5.json's event_kernel_speedup, and — via sim.NewWithKernel —
// as the old side of the machine-level old-vs-new equivalence test, so
// the derived numbers measure the real before/after rather than a
// strawman. Ordering is identical to the wheel's contract: by tick,
// then by scheduling order.
type HeapKernel struct {
	q   heapEvents
	seq uint64
}

// NewHeapKernel returns an empty heap-backed event queue.
func NewHeapKernel() *HeapKernel { return &HeapKernel{} }

type heapEvent struct {
	at  sim.Tick
	seq uint64
	h   sim.Handler
	arg any
	aux uint64
}

type heapEvents []heapEvent

func (h heapEvents) Len() int { return len(h) }
func (h heapEvents) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h heapEvents) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *heapEvents) Push(x interface{}) { *h = append(*h, x.(heapEvent)) }
func (h *heapEvents) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Push implements sim.ExternalKernel.
func (k *HeapKernel) Push(at sim.Tick, h sim.Handler, arg any, aux uint64) {
	k.seq++
	heap.Push(&k.q, heapEvent{at: at, seq: k.seq, h: h, arg: arg, aux: aux})
}

// Pop implements sim.ExternalKernel.
func (k *HeapKernel) Pop() (sim.Tick, sim.Handler, any, uint64, bool) {
	if len(k.q) == 0 {
		return 0, nil, nil, 0, false
	}
	e := heap.Pop(&k.q).(heapEvent)
	return e.at, e.h, e.arg, e.aux, true
}

// Peek implements sim.ExternalKernel.
func (k *HeapKernel) Peek() (sim.Tick, bool) {
	if len(k.q) == 0 {
		return 0, false
	}
	return k.q[0].at, true
}

// Len implements sim.ExternalKernel.
func (k *HeapKernel) Len() int { return len(k.q) }

// EventsPerOp is the scheduling volume of one event-kernel benchmark
// op: one burst of this many schedule+dispatch cycles, roughly the
// event traffic of one short test iteration (each simulated
// message/cycle is one event).
const EventsPerOp = 512

// kernelDelays is the benchmark's deterministic delay mix, shaped like
// the machine's real event population: delay-0 core advances and
// completion callbacks, L1/L2 access latencies, mesh traversals with
// jitter, memory round trips — plus one far-future timer per burst
// (the guest-barrier shape) to exercise the wheel's overflow tier.
var kernelDelays = [...]sim.Tick{
	0, 3, 0, 18, 7, 0, 3, 42, 0, 121, 3, 0, 26, 0, 9, 180,
}

// BenchEventKernel returns the event-kernel A/B benchmark body: one op
// schedules EventsPerOp events through the kernel and drains them,
// keeping a standing population so the heap pays its O(log n)
// comparisons. legacyHeap=true drives the seed-style binary heap
// with one closure per event through sim.InvokeFunc (what every
// pre-wheel call site paid); legacyHeap=false drives the wheel's
// pooled ScheduleEvent path with one pre-bound handler, the pattern
// the cpu/coherence/interconnect/memsys controllers migrated to.
func BenchEventKernel(legacyHeap bool) func(b *testing.B) {
	return func(b *testing.B) {
		var s *sim.Sim
		if legacyHeap {
			s = sim.NewWithKernel(1, NewHeapKernel())
		} else {
			s = sim.New(1)
		}
		var fired uint64
		count := sim.Handler(func(any, uint64) { fired++ })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < EventsPerOp; j++ {
				d := kernelDelays[j%len(kernelDelays)]
				if j == EventsPerOp/2 {
					d = 20000 // guest-barrier-gap shape: overflow tier
				}
				if legacyHeap {
					v := uint64(j)
					s.ScheduleEvent(d, sim.InvokeFunc, func() { fired += v & 1 }, 0)
				} else {
					s.ScheduleEvent(d, count, nil, uint64(j))
				}
			}
			s.Run()
		}
		b.StopTimer()
		if s.Pending() != 0 {
			b.Fatalf("kernel left %d events pending", s.Pending())
		}
		_ = fired
		b.ReportMetric(float64(EventsPerOp), "events/op")
	}
}
