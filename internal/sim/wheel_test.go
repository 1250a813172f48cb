package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestSameTickFIFOInterleaved pins the determinism contract across
// both scheduling APIs: events for one tick run in scheduling order no
// matter how Schedule and ScheduleEvent interleave.
func TestSameTickFIFOInterleaved(t *testing.T) {
	s := New(1)
	var order []int
	push := func(n int) { order = append(order, n) }
	rec := Handler(func(_ any, aux uint64) { order = append(order, int(aux)) })
	after(s, 7, func() { push(0) })
	s.ScheduleEvent(7, rec, nil, 1)
	after(s, 7, func() { push(2) })
	s.ScheduleEvent(7, rec, nil, 3)
	s.ScheduleEvent(3, rec, nil, 99) // earlier tick runs first regardless
	s.Run()
	want := []int{99, 0, 1, 2, 3}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestSameTickFIFOAcrossCascade covers the rollover path: events for
// one far tick arrive via the overflow cascade and via direct ring
// inserts (scheduled after the window rolled), and must still run in
// scheduling order.
func TestSameTickFIFOAcrossCascade(t *testing.T) {
	s := New(1)
	const far = Tick(3*wheelSize + 41)
	var order []int
	rec := Handler(func(_ any, aux uint64) { order = append(order, int(aux)) })
	s.ScheduleEvent(far, rec, nil, 0)            // overflow tier
	s.ScheduleEvent(far, rec, nil, 1)            // overflow tier, same tick
	s.ScheduleEvent(far-wheelSize, rec, nil, 10) // runs first, after a cascade
	// From one tick earlier — after the cascade has moved events 0 and
	// 1 into the ring — schedule a third event for the same far tick:
	// the direct ring insert must land after the cascaded pair.
	s.ScheduleEvent(far-1, Handler(func(any, uint64) {
		s.ScheduleEvent(1, rec, nil, 2)
	}), nil, 0)
	s.Run()
	want := []int{10, 0, 1, 2}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if s.Now() != far {
		t.Fatalf("Now = %d, want %d", s.Now(), far)
	}
}

// TestOverflowCascadeOrdering drives events across several window
// rollovers with deliberately shuffled delays and checks global
// (tick, scheduling-order) dispatch order.
func TestOverflowCascadeOrdering(t *testing.T) {
	s := New(1)
	type fire struct {
		at  Tick
		seq int
	}
	var got []fire
	delays := []Tick{
		5, 4 * wheelSize, wheelSize - 1, 2*wheelSize + 3, 0,
		wheelSize, 7 * wheelSize, 3, 2*wheelSize + 3, wheelSize + 1,
	}
	for i, d := range delays {
		d, i := d, i
		after(s, d, func() { got = append(got, fire{s.Now(), i}) })
	}
	s.Run()
	if len(got) != len(delays) {
		t.Fatalf("fired %d events, want %d", len(got), len(delays))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
			t.Fatalf("out of order at %d: %+v before %+v", i, a, b)
		}
	}
	for i, f := range got {
		_ = i
		if f.at != delays[f.seq] {
			t.Errorf("event %d fired at %d, want %d", f.seq, f.at, delays[f.seq])
		}
	}
}

// TestFarFutureDelay checks a delay many windows out survives repeated
// cascades and fires exactly on time.
func TestFarFutureDelay(t *testing.T) {
	s := New(1)
	const far = Tick(10_000_000) // ~4883 windows at wheelSize 2048
	fired := Tick(0)
	after(s, far, func() { fired = s.Now() })
	// A sparse chain keeps intermediate windows non-empty.
	var chain func()
	chain = func() {
		if s.Now() < far-30_000 {
			after(s, 25_000, chain)
		}
	}
	after(s, 0, chain)
	s.Run()
	if fired != far {
		t.Fatalf("far event fired at %d, want %d", fired, far)
	}
}

// TestRunUntilTimeoutExact pins the fixed watchdog semantics: the
// timeout is judged against the next event's timestamp, so an event
// past start+maxTicks never executes and ErrTimeout reports the exact
// deadline.
func TestRunUntilTimeoutExact(t *testing.T) {
	s := New(1)
	ran := 0
	var spin func()
	spin = func() { ran++; after(s, 10, spin) }
	after(s, 0, spin)
	err := s.RunUntil(func() bool { return false }, 95)
	var to *ErrTimeout
	if !errors.As(err, &to) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if to.At != 95 {
		t.Fatalf("timeout At = %d, want the exact deadline 95", to.At)
	}
	// Events at ticks 0,10,...,90 ran; the one at 100 must not have.
	if ran != 10 {
		t.Fatalf("ran %d events, want 10 (none past the deadline)", ran)
	}
	if s.Now() != 90 {
		t.Fatalf("Now = %d, want 90 (no event past the deadline executed)", s.Now())
	}
	// The pending event is still schedulable: a later RunUntil resumes.
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
}

// TestRunUntilEventAtDeadlineRuns: an event exactly at start+maxTicks
// is inside the budget.
func TestRunUntilEventAtDeadlineRuns(t *testing.T) {
	s := New(1)
	ran := false
	done := false
	after(s, 100, func() { ran = true; done = true })
	if err := s.RunUntil(func() bool { return done }, 100); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if !ran {
		t.Fatal("event at the deadline did not run")
	}
}

// TestRunUntilTimeoutFarEvent: with only a far-future event pending,
// the watchdog fires without ever advancing to it.
func TestRunUntilTimeoutFarEvent(t *testing.T) {
	s := New(1)
	after(s, 5*wheelSize, func() { t.Error("event past deadline executed") })
	err := s.RunUntil(func() bool { return false }, 1000)
	var to *ErrTimeout
	if !errors.As(err, &to) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if to.At != 1000 {
		t.Fatalf("timeout At = %d, want 1000", to.At)
	}
	if s.Now() != 0 {
		t.Fatalf("Now = %d, want 0", s.Now())
	}
}

// TestNextEventTime covers the lookahead across ring and overflow.
func TestNextEventTime(t *testing.T) {
	s := New(1)
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("empty sim reported a next event")
	}
	after(s, 3*wheelSize+7, func() {})
	if at, ok := s.NextEventTime(); !ok || at != 3*wheelSize+7 {
		t.Fatalf("next = %d,%v want %d,true", at, ok, 3*wheelSize+7)
	}
	after(s, 11, func() {})
	if at, ok := s.NextEventTime(); !ok || at != 11 {
		t.Fatalf("next = %d,%v want 11,true", at, ok)
	}
}

// TestFreelistReuse checks steady-state scheduling stops allocating:
// nodes released by dispatch are reused by later schedules.
func TestFreelistReuse(t *testing.T) {
	s := New(1)
	h := Handler(func(any, uint64) {})
	warm := func() {
		for i := 0; i < 4*slabSize; i++ {
			s.ScheduleEvent(Tick(i%97), h, nil, 0)
		}
		s.Run()
	}
	warm()
	allocs := testing.AllocsPerRun(20, warm)
	if allocs > 0 {
		t.Fatalf("steady-state ScheduleEvent allocated %.1f times per run, want 0", allocs)
	}
}

// TestParallelSimsRace mirrors the coverage RecordID -race hammer: one
// simulator per goroutine, all with the same seed and workload, must
// share no state — identical results, no data races under -race.
func TestParallelSimsRace(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	results := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := New(42)
			var sum uint64
			nop := Handler(func(any, uint64) {})
			add := Handler(func(_ any, aux uint64) {
				sum = sum*31 + aux + uint64(s.Now())
				if aux%7 == 0 {
					s.ScheduleEvent(Tick(s.Rand().Int63n(int64(3*wheelSize))), nop, nil, aux+1)
				}
			})
			for i := 0; i < 20_000; i++ {
				s.ScheduleEvent(Tick(s.Rand().Int63n(4096)), add, nil, uint64(i))
			}
			s.Run()
			results[w] = sum ^ s.Executed()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if results[w] != results[0] {
			t.Fatalf("worker %d diverged: %d != %d (shared state between sims?)", w, results[w], results[0])
		}
	}
}
