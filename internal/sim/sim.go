// Package sim provides the discrete-event simulation kernel underneath
// the full-system model: a tick-ordered event queue with deterministic
// tie-breaking, a seeded random source for latency jitter, and watchdog
// helpers used to detect protocol deadlocks (a bug symptom in its own
// right — §5.3 notes lockups as a possible PUTX-race consequence).
//
// The queue is a hierarchical timing wheel rather than a binary heap:
// the near future lives in a ring of per-tick buckets indexed by
// (now+delay) & wheelMask, and events beyond the ring's horizon wait on
// an overflow tier that is re-cascaded into the ring when the window
// rolls over. Scheduling and dispatch are O(1) amortized, and event
// nodes come from a pooled, intrusively-linked freelist, so the hot
// ScheduleEvent path allocates nothing — the property the campaign
// loop depends on, since it schedules one event per simulated
// message/cycle, millions of times per sample.
//
// There is one way to schedule: ScheduleEvent(delay, h, arg, aux), where
// h is a Handler the component pre-bound once at construction and
// (arg, aux) carry the event's operands (a pointer-shaped value and a
// small integer) without boxing. One-off closures ride the same path
// through the InvokeFunc adapter.
//
// Events scheduled for the same tick run in scheduling order, exactly
// like a heap ordered by (tick, seq) pairs — the reference model
// TestWheelMatchesHeapKernel compares dispatch traces against, and the
// determinism contract the fleet's byte-identical-at-any-worker-count
// guarantees build on.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Tick is simulated time in core cycles (Table 2: cores run at 2GHz, so
// 2e9 ticks correspond to one simulated second).
type Tick uint64

// TicksPerSecond converts ticks to simulated seconds at the Table 2
// clock.
const TicksPerSecond = 2_000_000_000

// Seconds returns the tick count as simulated seconds.
func (t Tick) Seconds() float64 { return float64(t) / TicksPerSecond }

// Handler is a pre-bound event callback: when the event fires, the
// kernel invokes h(arg, aux) with the operands given to ScheduleEvent.
// Components bind their hot callbacks to a Handler once at
// construction (the same pattern as the coverage engine's pre-resolved
// dispatch tables), so the per-event cost is a pooled node and two
// stored words — no closure allocation.
type Handler func(arg any, aux uint64)

// Pre-bound adapters for the common callback shapes, shared by every
// component so call sites do not rebuild them.
var (
	// InvokeFunc runs arg as a niladic func: a one-off closure travels
	// as arg (func values are pointer-shaped, so the conversion does not
	// allocate — only the closure itself does).
	InvokeFunc Handler = func(arg any, _ uint64) { arg.(func())() }
)

// event is one queue node: pooled, reused through the freelist, and
// intrusively linked through next (bucket FIFO chains, the overflow
// tier and the freelist all share the one pointer).
type event struct {
	next *event
	at   Tick
	h    Handler
	arg  any
	aux  uint64
}

// Wheel geometry. The ring spans wheelSize ticks at one-tick
// resolution, sized to cover the modeled latency spectrum (L1 hits at
// 3 ticks up to memory round trips under 300) so virtually every event
// is a direct ring insert; only far-future timers (beyond wheelSize
// ticks) take the overflow tier.
const (
	wheelBits  = 11
	wheelSize  = 1 << wheelBits
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64

	// slabSize is the freelist growth quantum: nodes are allocated in
	// slabs and recycled forever, so steady-state scheduling performs
	// zero allocations.
	slabSize = 64
)

// bucket is one ring slot: a FIFO chain of the events due at its tick.
type bucket struct {
	head, tail *event
}

// Sim is a single-threaded discrete-event simulator. Events scheduled at
// the same tick run in scheduling order, making runs fully deterministic
// for a given seed.
type Sim struct {
	now Tick
	rng *rand.Rand
	// executed counts processed events, for rough progress accounting.
	executed uint64
	// pending counts queued events across the ring and overflow tier.
	pending int

	// base is the first tick of the ring's current window; it is always
	// a multiple of wheelSize, and base <= now < base+wheelSize holds
	// whenever control is outside step.
	base    Tick
	buckets [wheelSize]bucket
	// occ is the ring occupancy bitmap: bit i set iff buckets[i] is
	// non-empty, so the next-event scan is a few word tests.
	occ   [wheelWords]uint64
	ringN int

	// Overflow tier: FIFO chain of events at or beyond base+wheelSize,
	// re-cascaded into the ring when the window rolls over them. ofMin
	// tracks the tier's earliest tick exactly.
	ofHead, ofTail *event
	ofN            int
	ofMin          Tick

	// free is the pooled node freelist, grown in slabs.
	free *event
}

// New returns a simulator whose jitter draws come from the given seed.
func New(seed int64) *Sim {
	s := new(Sim)
	s.Reset(seed)
	return s
}

// Reset returns the simulator to tick zero with an empty queue and its
// random source re-seeded — the state New hands out, which New itself
// reaches through this call. Events still queued are discarded into the
// freelist. The zero Sim is an empty queue at tick zero that only lacks
// the random source, so an owner that resets before first use (the
// machine) may start from new(Sim) and seed once.
func (s *Sim) Reset(seed int64) {
	if s.pending > 0 {
		for i := range s.buckets {
			s.freeChain(s.buckets[i].head)
			s.buckets[i] = bucket{}
		}
		s.freeChain(s.ofHead)
		s.occ = [wheelWords]uint64{}
		s.pending, s.ringN = 0, 0
		s.ofHead, s.ofTail, s.ofN, s.ofMin = nil, nil, 0, 0
	}
	s.now, s.base, s.executed = 0, 0, 0
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(seed))
	} else {
		s.rng.Seed(seed)
	}
}

// freeChain releases every node of an intrusive chain.
func (s *Sim) freeChain(e *event) {
	for e != nil {
		next := e.next
		s.release(e)
		e = next
	}
}

// Now returns the current simulated time.
func (s *Sim) Now() Tick { return s.now }

// Rand returns the simulator's random source (latency jitter,
// arbitration). Components must draw all randomness from here so a seed
// fully determines a run.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Executed returns the number of events processed so far.
func (s *Sim) Executed() uint64 { return s.executed }

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return s.pending }

// alloc takes a node from the freelist, growing it by one slab when
// empty.
func (s *Sim) alloc() *event {
	if s.free == nil {
		slab := make([]event, slabSize)
		for i := 0; i+1 < slabSize; i++ {
			slab[i].next = &slab[i+1]
		}
		s.free = &slab[0]
	}
	e := s.free
	s.free = e.next
	e.next = nil
	return e
}

// release returns a node to the freelist, dropping its references so
// pooled nodes do not pin handler arguments.
func (s *Sim) release(e *event) {
	e.h, e.arg, e.aux = nil, nil, 0
	e.next = s.free
	s.free = e
}

// ScheduleEvent runs h(arg, aux) after delay ticks. The fast path: no
// closure, no boxing for pointer-shaped args, and a pooled queue node —
// zero allocations in steady state.
func (s *Sim) ScheduleEvent(delay Tick, h Handler, arg any, aux uint64) {
	at := s.now + delay
	e := s.alloc()
	e.at, e.h, e.arg, e.aux = at, h, arg, aux
	s.pending++
	if at-s.base < wheelSize {
		s.ringPush(e)
	} else {
		s.ofPush(e)
	}
}

// ringPush appends e to its bucket's FIFO chain. The caller guarantees
// e.at falls inside the current window.
func (s *Sim) ringPush(e *event) {
	i := int(e.at & wheelMask)
	b := &s.buckets[i]
	if b.tail == nil {
		b.head = e
		s.occ[i>>6] |= 1 << uint(i&63)
	} else {
		b.tail.next = e
	}
	b.tail = e
	s.ringN++
}

// ofPush appends e to the overflow tier, maintaining its FIFO chain
// and exact minimum.
func (s *Sim) ofPush(e *event) {
	if s.ofTail == nil {
		s.ofHead = e
	} else {
		s.ofTail.next = e
	}
	s.ofTail = e
	if s.ofN == 0 || e.at < s.ofMin {
		s.ofMin = e.at
	}
	s.ofN++
}

// scan returns the first occupied bucket index at or after from. The
// caller guarantees one exists (every ring event is at or after now,
// and past buckets are drained).
func (s *Sim) scan(from int) int {
	w := from >> 6
	word := s.occ[w] &^ (1<<uint(from&63) - 1)
	for word == 0 {
		w++
		word = s.occ[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// cascade rolls the overflow tier against the current window: events
// now inside it move to their ring buckets, the rest stay queued.
// Both chains are walked and rebuilt in FIFO order, which is exactly
// scheduling order — so same-tick determinism survives the rollover.
func (s *Sim) cascade() {
	e := s.ofHead
	s.ofHead, s.ofTail, s.ofN = nil, nil, 0
	s.ofMin = 0
	for e != nil {
		next := e.next
		e.next = nil
		if e.at-s.base < wheelSize {
			s.ringPush(e)
		} else {
			s.ofPush(e)
		}
		e = next
	}
}

// NextEventTime reports the earliest pending event's tick without
// dispatching it.
func (s *Sim) NextEventTime() (Tick, bool) {
	if s.pending == 0 {
		return 0, false
	}
	if s.ringN > 0 {
		// Ring events always precede the overflow tier (which holds
		// only ticks at or beyond the window's horizon).
		return s.base + Tick(s.scan(int(s.now-s.base))), true
	}
	return s.ofMin, true
}

// stepLimit outcomes.
const (
	stepRan    = iota // one event dispatched
	stepEmpty         // queue empty
	stepBeyond        // next event lies past the limit; nothing dispatched
)

// stepLimit dispatches the next event unless it lies past limit. It is
// the single engine under both step and RunUntil, so the watchdog's
// lookahead and the dispatch share one bucket scan per event.
func (s *Sim) stepLimit(limit Tick) int {
	if s.pending == 0 {
		return stepEmpty
	}
	if s.ringN == 0 {
		// The window is exhausted; everything pending waits in the
		// overflow tier, whose exact minimum is ofMin.
		if s.ofMin > limit {
			return stepBeyond
		}
		// Roll the window forward to that tick and cascade. One
		// cascade suffices — the new window starts at ofMin's
		// bucket-aligned tick, so at least that event lands in the
		// ring.
		s.base = s.ofMin &^ Tick(wheelMask)
		s.cascade()
	}
	start := 0
	if s.now > s.base {
		start = int(s.now - s.base)
	}
	i := s.scan(start)
	t := s.base + Tick(i)
	if t > limit {
		return stepBeyond
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: time went backwards: %d < %d", t, s.now))
	}
	b := &s.buckets[i]
	e := b.head
	b.head = e.next
	if b.head == nil {
		b.tail = nil
		s.occ[i>>6] &^= 1 << uint(i&63)
	}
	s.ringN--
	s.pending--
	s.now = t
	h, arg, aux := e.h, e.arg, e.aux
	s.release(e)
	s.executed++
	h(arg, aux)
	return stepRan
}

// step executes the next event; reports false when the queue is empty.
func (s *Sim) step() bool {
	return s.stepLimit(^Tick(0)) == stepRan
}

// Run executes events until the queue drains.
func (s *Sim) Run() {
	for s.step() {
	}
}

// ErrDeadlock is returned by RunUntil when the event queue drains before
// the stop condition holds: the modeled system can make no further
// progress, which for a coherence protocol indicates a deadlock.
type ErrDeadlock struct {
	At Tick
}

func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("sim: deadlock: event queue empty at tick %d before completion", e.At)
}

// ErrTimeout is returned by RunUntil when the watchdog budget elapses
// before the stop condition holds — a livelock/forward-progress
// watchdog. At is the exact deadline (start + maxTicks): no event past
// it has executed.
type ErrTimeout struct {
	At Tick
}

func (e *ErrTimeout) Error() string {
	return fmt.Sprintf("sim: watchdog timeout at tick %d", e.At)
}

// RunUntil executes events until stop() holds, the queue drains
// (deadlock), or the next event lies beyond start+maxTicks (timeout).
// The timeout is judged against the next event's timestamp, so no
// event past the deadline ever executes and ErrTimeout reports the
// deadline itself.
func (s *Sim) RunUntil(stop func() bool, maxTicks Tick) error {
	limit := s.now + maxTicks
	for !stop() {
		switch s.stepLimit(limit) {
		case stepEmpty:
			return &ErrDeadlock{At: s.now}
		case stepBeyond:
			return &ErrTimeout{At: limit}
		}
	}
	return nil
}
