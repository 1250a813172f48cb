package sim

import (
	"errors"
	"testing"
)

// after schedules a one-off closure.
func after(s *Sim, delay Tick, fn func()) { s.ScheduleEvent(delay, InvokeFunc, fn, 0) }

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var order []int
	after(s, 10, func() { order = append(order, 2) })
	after(s, 5, func() { order = append(order, 1) })
	after(s, 10, func() { order = append(order, 3) }) // same tick: FIFO
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 10 {
		t.Fatalf("Now = %d, want 10", s.Now())
	}
	if s.Executed() != 3 {
		t.Fatalf("Executed = %d, want 3", s.Executed())
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var ticks []Tick
	after(s, 1, func() {
		ticks = append(ticks, s.Now())
		after(s, 4, func() { ticks = append(ticks, s.Now()) })
	})
	s.Run()
	if len(ticks) != 2 || ticks[0] != 1 || ticks[1] != 5 {
		t.Fatalf("ticks = %v", ticks)
	}
}

func TestZeroDelayRunsAtSameTick(t *testing.T) {
	s := New(1)
	ran := false
	after(s, 3, func() {
		after(s, 0, func() {
			if s.Now() != 3 {
				t.Errorf("zero-delay ran at %d", s.Now())
			}
			ran = true
		})
	})
	s.Run()
	if !ran {
		t.Fatal("zero-delay event never ran")
	}
}

func TestRunUntilStop(t *testing.T) {
	s := New(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			after(s, 1, tick)
		}
	}
	after(s, 1, tick)
	if err := s.RunUntil(func() bool { return count >= 5 }, 1000); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

func TestRunUntilDeadlock(t *testing.T) {
	s := New(1)
	after(s, 1, func() {})
	err := s.RunUntil(func() bool { return false }, 1000)
	var dead *ErrDeadlock
	if !errors.As(err, &dead) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestRunUntilTimeout(t *testing.T) {
	s := New(1)
	var spin func()
	spin = func() { after(s, 10, spin) }
	after(s, 0, spin)
	err := s.RunUntil(func() bool { return false }, 100)
	var to *ErrTimeout
	if !errors.As(err, &to) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestTickSeconds(t *testing.T) {
	if got := Tick(TicksPerSecond).Seconds(); got != 1.0 {
		t.Fatalf("Seconds = %v, want 1", got)
	}
	if got := Tick(TicksPerSecond / 2).Seconds(); got != 0.5 {
		t.Fatalf("Seconds = %v, want 0.5", got)
	}
}

func TestPending(t *testing.T) {
	s := New(1)
	if s.Pending() != 0 {
		t.Fatal("fresh sim has pending events")
	}
	after(s, 1, func() {})
	after(s, 2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
}
