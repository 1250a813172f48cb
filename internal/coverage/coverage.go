// Package coverage implements the structural-coverage fitness signal of
// §3.2: transitions of the coherence protocol's controllers are counted
// since simulation start, frequent transitions are adaptively excluded,
// and each test-run's fitness is the fraction of currently-rare
// transitions it covered. The cut-off doubles when adaptive coverage
// stays low for too long, steering the population towards unexplored
// transitions and away from local maxima.
//
// The hot path is interned: the coherence package numbers each
// protocol's transition vocabulary once, recording an event is an
// increment into a flat array plus a dirty bit, and the per-run fitness
// pass visits only the transitions the run actually touched (via the
// dirty bitset) against a maintained rare-set instead of sweeping the
// full table.
package coverage

import "math/bits"

// TransitionID is the dense index of a transition in its protocol's
// vocabulary. It is an alias (not a defined type) so that a Tracker
// structurally satisfies the coherence package's coverage sink without
// either package importing the other.
type TransitionID = uint32

// Params tunes the adaptive cut-off behaviour.
type Params struct {
	// InitialCutoff is the low initial transition-count cut-off; a
	// transition with fewer global occurrences counts as rare.
	InitialCutoff uint64 `json:"InitialCutoff"`
	// LowFitness is the adaptive-coverage threshold below which a run
	// counts as unproductive.
	LowFitness float64 `json:"LowFitness"`
	// Patience is how many consecutive unproductive evaluations
	// trigger an exponential cut-off increase.
	Patience int `json:"Patience"`
}

// DefaultParams returns the parameters used in the evaluation.
func DefaultParams() Params {
	return Params{InitialCutoff: 4, LowFitness: 0.02, Patience: 25}
}

// withDefaults fills each unset (zero) field from DefaultParams
// individually, so explicitly-set fields survive partial
// configurations (a zero InitialCutoff no longer discards the caller's
// LowFitness and Patience).
func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.InitialCutoff == 0 {
		p.InitialCutoff = d.InitialCutoff
	}
	if p.LowFitness == 0 {
		p.LowFitness = d.LowFitness
	}
	if p.Patience == 0 {
		p.Patience = d.Patience
	}
	return p
}

// Tracker accumulates transition counts and computes per-run fitness.
//
// A tracker has one writer: the campaign that owns it records, drives
// the run boundaries and reads the results on one goroutine (the fleet
// reads a finished campaign's tracker behind its own barrier), which is
// also what keeps fleet fitness byte-identical at any worker count.
// RecordID costs an increment and a dirty bit, with no allocation.
type Tracker struct {
	params Params

	// counts holds the global per-transition occurrence counts,
	// indexed by TransitionID.
	counts []uint64
	// covered counts transitions with counts > 0 (maintained, so
	// TotalCoverage is O(1)).
	covered int

	// dirty is a bitset over the TransitionIDs recorded since the last
	// run boundary, so the fitness pass visits only its set bits.
	dirty []uint64

	// rare marks transitions whose count was below the cut-off at the
	// last run boundary; rareCount is its cardinality.
	rare      []bool
	rareCount int
	cutoff    uint64
	lowStreak int
	doubled   int
}

// NewTracker returns a tracker over a vocabulary of n transitions,
// TransitionIDs 0 to n-1.
func NewTracker(n int, params Params) *Tracker {
	t := &Tracker{
		params: params.withDefaults(),
		counts: make([]uint64, n),
		dirty:  make([]uint64, (n+63)/64),
		rare:   make([]bool, n),
	}
	t.cutoff = t.params.InitialCutoff
	for i := range t.rare {
		t.rare[i] = true
	}
	t.rareCount = n
	return t
}

// RecordID implements coherence.CoverageSink: one increment into the
// global counts and one dirty bit. IDs outside the vocabulary are
// dropped.
func (t *Tracker) RecordID(id TransitionID) {
	if uint64(id) >= uint64(len(t.counts)) {
		return
	}
	if t.counts[id] == 0 {
		t.covered++
	}
	t.counts[id]++
	t.dirty[id>>6] |= 1 << (id & 63)
}

// drain walks the dirty bitset, counting the touched transitions that
// were rare at the last run boundary, then clears the bitset and
// re-syncs the rare-set for exactly those transitions.
func (t *Tracker) drain() (coveredRare int) {
	for w, word := range t.dirty {
		t.dirty[w] = 0
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			id := w<<6 | b
			if !t.rare[id] {
				continue
			}
			coveredRare++
			if t.counts[id] >= t.cutoff {
				t.rare[id] = false
				t.rareCount--
			}
		}
	}
	return coveredRare
}

// StartRun clears the per-run state, folding any records made outside
// a run into the rarity bookkeeping.
func (t *Tracker) StartRun() { t.drain() }

// EndRun computes the run's adaptive fitness: of the transitions that
// were rare when the run started (count below the cut-off), the
// fraction this run covered. A run covering one transition several
// times is classified against its true pre-run count, and only the
// transitions the run touched are visited. It also advances the
// adaptive cut-off machinery.
func (t *Tracker) EndRun() float64 {
	// rareCount was synced at the last run boundary, i.e. it is the
	// rare-set cardinality at this run's start; rare[id] likewise
	// still reflects the pre-run state for every id the run touched.
	denom := t.rareCount
	covered := t.drain()

	var fitness float64
	if denom > 0 {
		fitness = float64(covered) / float64(denom)
	}
	if denom == 0 || fitness < t.params.LowFitness {
		t.lowStreak++
	} else {
		t.lowStreak = 0
	}
	if t.lowStreak >= t.params.Patience {
		t.cutoff *= 2
		t.doubled++
		t.lowStreak = 0
		t.rebuildRare()
	}
	return fitness
}

// rebuildRare recomputes the rare-set from scratch — needed only when
// the cut-off changes, which is rare by construction.
func (t *Tracker) rebuildRare() {
	t.rareCount = 0
	for id := range t.rare {
		r := t.counts[id] < t.cutoff
		t.rare[id] = r
		if r {
			t.rareCount++
		}
	}
}

// TotalCoverage returns the fraction of the full transition table
// covered at least once since simulation start (the Table 6 metric).
// O(1): the covered cardinality is maintained at record time.
func (t *Tracker) TotalCoverage() float64 {
	n := len(t.counts)
	if n == 0 {
		return 0
	}
	return float64(t.covered) / float64(n)
}

// Covered returns how many distinct table transitions have occurred.
func (t *Tracker) Covered() int { return t.covered }

// Cutoff returns the current adaptive cut-off.
func (t *Tracker) Cutoff() uint64 { return t.cutoff }

// Doublings returns how many times the cut-off doubled.
func (t *Tracker) Doublings() int { return t.doubled }

// Snapshot copies the global per-transition counts (indexed by
// TransitionID) into dst, growing it as needed, and returns it. The
// fleet merges snapshots into its union coverage; merging is
// commutative, so the union is identical at any worker count.
func (t *Tracker) Snapshot(dst []uint64) []uint64 {
	if cap(dst) < len(t.counts) {
		dst = make([]uint64, len(t.counts))
	}
	dst = dst[:len(t.counts)]
	copy(dst, t.counts)
	return dst
}
