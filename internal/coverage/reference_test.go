package coverage

import (
	"math"
	"math/rand"
	"testing"
)

// reference is §3.2 written down naively: transition counts since
// simulation start, the set of transitions whose count was below the
// cut-off at the last run boundary, and a full recount of that set at
// every boundary. Fitness is the fraction of that set the run touched;
// Patience consecutive runs under LowFitness double the cut-off.
type reference struct {
	n       int
	p       Params
	counts  map[TransitionID]uint64
	touched map[TransitionID]bool
	rare    map[TransitionID]bool
	cutoff  uint64
	low     int
	doubled int
}

func newReference(n int, p Params) *reference {
	r := &reference{n: n, p: p, counts: map[TransitionID]uint64{}, cutoff: p.InitialCutoff}
	r.boundary()
	return r
}

func (r *reference) boundary() {
	r.touched, r.rare = map[TransitionID]bool{}, map[TransitionID]bool{}
	for id := TransitionID(0); int(id) < r.n; id++ {
		if r.counts[id] < r.cutoff {
			r.rare[id] = true
		}
	}
}

func (r *reference) record(id TransitionID) {
	if int64(id) >= int64(r.n) {
		return
	}
	r.counts[id]++
	r.touched[id] = true
}

func (r *reference) endRun() float64 {
	covered := 0
	for id := range r.touched {
		if r.rare[id] {
			covered++
		}
	}
	fitness := 0.0
	if len(r.rare) > 0 {
		fitness = float64(covered) / float64(len(r.rare))
	}
	if len(r.rare) == 0 || fitness < r.p.LowFitness {
		r.low++
	} else {
		r.low = 0
	}
	if r.low >= r.p.Patience {
		r.cutoff *= 2
		r.doubled++
		r.low = 0
	}
	r.boundary()
	return fitness
}

// TestTrackerMatchesReference drives random streams — repeats, IDs
// outside the vocabulary, records outside a run, EndRun without
// StartRun, and enough unproductive runs to double the cut-off at least
// twice — through Tracker and through the reference, comparing every
// EndRun fitness bit for bit and the observable state after it.
func TestTrackerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(150) // below, at and across the 64-bit dirty words
		p := Params{InitialCutoff: uint64(1 + rng.Intn(3)), LowFitness: 0.05 + 0.4*rng.Float64(), Patience: 1 + rng.Intn(4)}
		tr := NewTracker(n, p)
		ref := newReference(n, p)
		hot := 1 + rng.Intn(n) // records favour IDs below hot, so those turn frequent
		for step := 0; step < 3000; step++ {
			switch k := rng.Intn(40); {
			case k == 0:
				tr.StartRun()
				ref.boundary()
			case k == 1:
				got, want := tr.EndRun(), ref.endRun()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d step %d: fitness %v, reference %v", seed, step, got, want)
				}
				if tr.Cutoff() != ref.cutoff || tr.Doublings() != ref.doubled {
					t.Fatalf("seed %d step %d: cutoff %d ×%d, reference %d ×%d",
						seed, step, tr.Cutoff(), tr.Doublings(), ref.cutoff, ref.doubled)
				}
			case k == 2:
				id := TransitionID(n + rng.Intn(3))
				if rng.Intn(2) == 0 {
					id = ^TransitionID(0)
				}
				tr.RecordID(id)
				ref.record(id)
			default:
				id := TransitionID(rng.Intn(hot))
				if rng.Intn(8) == 0 {
					id = TransitionID(rng.Intn(n))
				}
				tr.RecordID(id)
				ref.record(id)
			}
		}
		if ref.doubled < 2 {
			t.Errorf("seed %d: cut-off doubled %d times, the stream should force at least 2", seed, ref.doubled)
		}
		if tr.Covered() != len(ref.counts) {
			t.Errorf("seed %d: covered %d, reference %d", seed, tr.Covered(), len(ref.counts))
		}
		if got, want := tr.TotalCoverage(), float64(len(ref.counts))/float64(n); got != want {
			t.Errorf("seed %d: TotalCoverage %v, reference %v", seed, got, want)
		}
		for id, c := range tr.Snapshot(nil) {
			if c != ref.counts[TransitionID(id)] {
				t.Fatalf("seed %d: count[%d] = %d, reference %d", seed, id, c, ref.counts[TransitionID(id)])
			}
		}
	}
}
