package obs

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mergeguard"
)

func TestPhaseStatsObserveAndSnapshot(t *testing.T) {
	ps := &PhaseStats{}
	ps.Observe(PhaseSim, 2*time.Second)
	ps.Observe(PhaseSim, time.Second)
	ps.Observe(PhaseTestgen, 500*time.Millisecond)
	ps.ObserveN(PhaseMemo, int64(time.Second), 0) // time without a span
	ps.Observe(Phase(-1), time.Hour)              // out of range: dropped
	ps.Observe(Phase(NumPhases), time.Hour)

	s := ps.Snapshot()
	if got := s.Sim; got.Ns != int64(3*time.Second) || got.Count != 2 {
		t.Errorf("sim = %+v", got)
	}
	if got := s.Testgen; got.Ns != int64(500*time.Millisecond) || got.Count != 1 {
		t.Errorf("testgen = %+v", got)
	}
	if got := s.Memo; got.Ns != int64(time.Second) || got.Count != 0 {
		t.Errorf("memo = %+v", got)
	}
	if total := s.TotalNs(); total != int64(4500*time.Millisecond) {
		t.Errorf("total = %d", total)
	}
}

// TestNilHandlesAreNoOps: a nil *PhaseStats is the disabled
// tracer, so call sites need no enable flag of their own.
func TestNilHandlesAreNoOps(t *testing.T) {
	var ps *PhaseStats
	ps.Observe(PhaseSim, time.Hour)
	ps.ObserveN(PhaseSim, int64(time.Hour), 3)
	if !ps.Snapshot().Empty() {
		t.Error("nil PhaseStats accumulated spans")
	}
}

func TestPhaseStatsConcurrent(t *testing.T) {
	ps := &PhaseStats{}
	const workers, spans = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				ps.Observe(Phase(i%int(NumPhases)), time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := ps.Snapshot()
	var count uint64
	for p := Phase(0); p < NumPhases; p++ {
		count += s.Phase(p).Count
	}
	if count != workers*spans {
		t.Fatalf("span count = %d, want %d", count, workers*spans)
	}
}

// randomSnapshot builds a snapshot with pseudo-random per-phase values.
func randomSnapshot(rng *rand.Rand) Snapshot {
	var s Snapshot
	for p := Phase(0); p < NumPhases; p++ {
		s.set(p, PhaseStat{Ns: int64(rng.Intn(1_000_000)), Count: uint64(rng.Intn(100))})
	}
	return s
}

// TestSnapshotMergeAlgebra is the satellite property test: Merge is
// commutative and associative, so any shard partition of the same span
// set — merged in any grouping and order — yields the same aggregate.
// This is what lets Snapshot ride the MergeShards algebra.
func TestSnapshotMergeAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		parts := make([]Snapshot, 2+rng.Intn(6))
		for i := range parts {
			parts[i] = randomSnapshot(rng)
		}

		fold := func(order []int) Snapshot {
			var acc Snapshot
			for _, i := range order {
				acc = acc.Merge(parts[i])
			}
			return acc
		}
		fwd := make([]int, len(parts))
		rev := make([]int, len(parts))
		for i := range parts {
			fwd[i], rev[i] = i, len(parts)-1-i
		}
		shuf := append([]int(nil), fwd...)
		rng.Shuffle(len(shuf), func(a, b int) { shuf[a], shuf[b] = shuf[b], shuf[a] })
		a, b, c := fold(fwd), fold(rev), fold(shuf)
		if a != b || a != c {
			t.Fatalf("trial %d: merge depends on order:\n%v\n%v\n%v", trial, a, b, c)
		}

		// Associativity with explicit regrouping: (p0+p1)+p2 == p0+(p1+p2).
		if len(parts) >= 3 {
			left := parts[0].Merge(parts[1]).Merge(parts[2])
			right := parts[0].Merge(parts[1].Merge(parts[2]))
			if left != right {
				t.Fatalf("trial %d: merge not associative:\n%v\n%v", trial, left, right)
			}
		}

		// Identity.
		if got := a.Merge(Snapshot{}); got != a {
			t.Fatalf("trial %d: zero snapshot is not the identity", trial)
		}
	}
}

func TestSpanAndString(t *testing.T) {
	s := Span(PhaseMerge, 5*time.Millisecond)
	if got := s.Merging; got.Ns != int64(5*time.Millisecond) || got.Count != 1 {
		t.Fatalf("span = %+v", got)
	}
	if !strings.Contains(s.String(), "merge 5ms (100%)") {
		t.Errorf("String() = %q", s.String())
	}
	if got := (Snapshot{}).String(); got != "no spans" {
		t.Errorf("empty String() = %q", got)
	}
	full := Span(PhaseSim, 3*time.Second).Merge(Span(PhaseTestgen, time.Second))
	str := full.String()
	if !strings.Contains(str, "sim 3s (75%)") || !strings.Contains(str, "testgen 1s (25%)") {
		t.Errorf("String() = %q", str)
	}
	// Under a second a phase keeps its microseconds, so a short run's
	// phases do not all read 0s; from a second up, milliseconds.
	short := Span(PhaseDecode, 1234567*time.Nanosecond).Merge(Span(PhaseCheck, 2345678901*time.Nanosecond))
	if str := short.String(); !strings.Contains(str, "decode 1.235ms (0%)") || !strings.Contains(str, "check 2.346s (99%)") {
		t.Errorf("String() = %q", str)
	}
}

func TestPhaseNames(t *testing.T) {
	want := []string{"testgen", "sim", "decode", "fastcheck", "check", "memo", "merge"}
	for p := Phase(0); p < NumPhases; p++ {
		if p.String() != want[p] {
			t.Errorf("phase %d = %q, want %q", int(p), p, want[p])
		}
	}
	if got := Phase(99).String(); got != "phase(99)" {
		t.Errorf("out-of-range phase = %q", got)
	}
}

// TestSnapshotMergeCoversEveryField: every PhaseStat leaf of every
// phase must propagate through Merge — a phase dropped from the
// Phase/set dispatch tables fails here by name.
func TestSnapshotMergeCoversEveryField(t *testing.T) {
	if got := mergeguard.Uncovered(Snapshot.Merge, 1); got != nil {
		t.Errorf("Snapshot.Merge drops %v", got)
	}
}
