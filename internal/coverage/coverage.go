// Package coverage implements the structural-coverage fitness signal of
// §3.2: transitions of the coherence protocol's controllers are counted
// since simulation start, frequent transitions are adaptively excluded,
// and each test-run's fitness is the fraction of currently-rare
// transitions it covered. The cut-off doubles when adaptive coverage
// stays low for too long, steering the population towards unexplored
// transitions and away from local maxima.
//
// The hot path is interned and lock-free: a Table maps the protocol's
// transition vocabulary to dense TransitionIDs once, recording an event
// is an atomic increment into a flat array plus a dirty-bit, and the
// per-run fitness pass visits only the transitions the run actually
// touched (via the dirty bitset) against a maintained rare-set instead
// of sweeping the full table.
package coverage

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Transition identifies one (controller, state, event) coverage unit.
// It mirrors coherence.Transition without importing it, so the tracker
// satisfies coherence.CoverageSink structurally.
type Transition struct {
	Controller, State, Event string
}

// Params tunes the adaptive cut-off behaviour.
type Params struct {
	// InitialCutoff is the low initial transition-count cut-off; a
	// transition with fewer global occurrences counts as rare.
	InitialCutoff uint64
	// LowFitness is the adaptive-coverage threshold below which a run
	// counts as unproductive.
	LowFitness float64
	// Patience is how many consecutive unproductive evaluations
	// trigger an exponential cut-off increase.
	Patience int
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
// Recording is lock-free: RecordID costs two atomic increments and an
// atomic OR, with no allocation, so it can be hammered from the
// simulation hot path (and, through per-worker Shards, from many
// goroutines) without a shared mutex. Read-side accessors
// (TotalCoverage, Covered, Uncovered) are O(1) or allocation-free
// sweeps over flat arrays and are safe concurrently with recording.
// The mutex guards only the occasional run-boundary bookkeeping (the
// adaptive cut-off machinery and the maintained rare-set).
type Tracker struct {
	params Params
	table  *Table

	// counts holds the global per-transition occurrence counts,
	// indexed by TransitionID and accessed atomically.
	counts []uint64
	// covered counts transitions with counts > 0 (maintained, so
	// TotalCoverage is O(1)).
	covered atomic.Int64
	// unknown tallies records outside the vocabulary (dropped from
	// coverage, kept visible for diagnostics).
	unknown atomic.Uint64

	mu sync.Mutex
	// rare marks transitions whose committed count was below the
	// cut-off at the last run boundary; rareCount is its cardinality.
	// The pair replaces the full-table rarity sweep the old EndRun did.
	rare      []bool
	rareCount int
	cutoff    uint64
	lowStreak int
	evals     uint64
	doubled   int

	main Shard
}

// NewTracker returns a tracker whose denominator is the given full
// transition table. It interns a private Table; callers sharing one
// vocabulary across many trackers should intern once and use
// NewTrackerForTable.
func NewTracker(all []Transition, params Params) *Tracker {
	return NewTrackerForTable(NewTable(all), params)
}

// NewTrackerForTable returns a tracker over an already-interned
// vocabulary. The table is shared, not copied: TransitionIDs resolved
// against it feed RecordID directly.
func NewTrackerForTable(table *Table, params Params) *Tracker {
	n := table.Len()
	t := &Tracker{
		params: params.withDefaults(),
		table:  table,
		counts: make([]uint64, n),
		rare:   make([]bool, n),
	}
	t.cutoff = t.params.InitialCutoff
	for i := range t.rare {
		t.rare[i] = true
	}
	t.rareCount = n
	t.main.init(t)
	return t
}

// Table exposes the interned vocabulary (shared, read-only).
func (t *Tracker) Table() *Table { return t.table }

// Shard is one worker's recording lane: a flat per-run count array
// plus a dirty bitset, written with atomics only. A campaign running
// single-threaded uses the tracker's built-in shard through the
// Tracker methods; concurrent recorders take a Shard each via NewShard
// so recording never contends on a lock.
//
// Recording (RecordID) is safe from any number of
// goroutines. Run-boundary scoring is not symmetric: StartRun/EndRun
// mutate the tracker's shared rare-set and cut-off, so per-run fitness
// is well-defined — and deterministic — only when one consumer drives
// the run boundaries of a tracker. The framework satisfies this by
// construction: every campaign owns its tracker, which is what keeps
// fleet fitness byte-identical at any worker count. Extra shards are
// for auxiliary concurrent recorders (and the race tests), not for
// scoring one run from several goroutines.
type Shard struct {
	t *Tracker
	// run holds this shard's per-run counts by TransitionID.
	run []uint64
	// dirty is a bitset over TransitionIDs recorded since the last
	// run boundary; the fitness pass visits only its set bits.
	dirty []uint64
}

func (s *Shard) init(t *Tracker) {
	s.t = t
	s.run = make([]uint64, t.table.Len())
	s.dirty = make([]uint64, (t.table.Len()+63)/64)
}

// NewShard registers a new recording lane on the tracker.
func (t *Tracker) NewShard() *Shard {
	s := &Shard{}
	s.init(t)
	return s
}

// Tracker returns the shard's tracker.
func (s *Shard) Tracker() *Tracker { return s.t }

// RecordID is the interned fast path: one atomic increment into the
// global counts, one into the shard's run counts, one dirty bit. IDs
// outside the vocabulary are dropped (counted in UnknownRecords).
func (s *Shard) RecordID(id TransitionID) {
	if uint64(id) >= uint64(len(s.run)) {
		s.t.unknown.Add(1)
		return
	}
	if atomic.AddUint64(&s.t.counts[id], 1) == 1 {
		s.t.covered.Add(1)
	}
	// Count before flagging: a concurrent run-boundary drain that
	// misses the fresh dirty bit leaves the count for the next run
	// instead of losing it.
	atomic.AddUint64(&s.run[id], 1)
	atomic.OrUint64(&s.dirty[id>>6], 1<<(id&63))
}

// drainLocked walks the shard's dirty bitset, invoking visit for every
// transition the run touched, then resets the shard and re-syncs the
// rare-set for exactly those transitions. Caller holds t.mu.
func (s *Shard) drainLocked(visit func(id int)) {
	t := s.t
	for w := range s.dirty {
		word := atomic.SwapUint64(&s.dirty[w], 0)
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			id := w<<6 | b
			// A zero count is a spurious dirty bit (the racing record
			// landed in a neighbouring drain); skip it.
			if atomic.SwapUint64(&s.run[id], 0) == 0 {
				continue
			}
			if visit != nil {
				visit(id)
			}
			if t.rare[id] && atomic.LoadUint64(&t.counts[id]) >= t.cutoff {
				t.rare[id] = false
				t.rareCount--
			}
		}
	}
}

// StartRun clears the shard's per-run state, folding any records made
// outside a run into the global rarity bookkeeping.
func (s *Shard) StartRun() {
	s.t.mu.Lock()
	s.drainLocked(nil)
	s.t.mu.Unlock()
}

// EndRun computes the run's adaptive fitness: of the transitions that
// were rare when the run started (committed count below the cut-off),
// the fraction this run covered. Per-run counts are exact — a run
// covering one transition several times is classified against its true
// pre-run count, not an approximation — and only the transitions the
// run touched are visited. It also advances the adaptive cut-off
// machinery.
func (s *Shard) EndRun() float64 {
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.evals++

	// rareCount was synced at the last run boundary, i.e. it is the
	// rare-set cardinality at this run's start; rare[id] likewise
	// still reflects the pre-run state for every id the run touched.
	denom := t.rareCount
	covered := 0
	s.drainLocked(func(id int) {
		if t.rare[id] {
			covered++
		}
	})

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
		t.rebuildRareLocked()
	}
	return fitness
}

// rebuildRareLocked recomputes the rare-set from scratch — needed only
// when the cut-off changes, which is rare by construction.
func (t *Tracker) rebuildRareLocked() {
	t.rareCount = 0
	for id := range t.rare {
		r := atomic.LoadUint64(&t.counts[id]) < t.cutoff
		t.rare[id] = r
		if r {
			t.rareCount++
		}
	}
}

// RecordID implements coherence.CoverageSink on the tracker's built-in
// shard.
func (t *Tracker) RecordID(id TransitionID) { t.main.RecordID(id) }

// CoverageID resolves a transition's interned ID; controllers call it
// once at machine build time to pre-resolve their dispatch tables.
func (t *Tracker) CoverageID(controller, state, event string) (TransitionID, bool) {
	return t.table.ID(Transition{controller, state, event})
}

// StartRun clears the built-in shard's per-run covered set.
func (t *Tracker) StartRun() { t.main.StartRun() }

// EndRun scores the built-in shard's run; see Shard.EndRun.
func (t *Tracker) EndRun() float64 { return t.main.EndRun() }

// TotalCoverage returns the fraction of the full transition table
// covered at least once since simulation start (the Table 6 metric).
// O(1): the covered cardinality is maintained at record time.
func (t *Tracker) TotalCoverage() float64 {
	n := t.table.Len()
	if n == 0 {
		return 0
	}
	return float64(t.covered.Load()) / float64(n)
}

// Covered returns how many distinct table transitions have occurred.
func (t *Tracker) Covered() int { return int(t.covered.Load()) }

// TableSize returns the denominator.
func (t *Tracker) TableSize() int { return t.table.Len() }

// UnknownRecords returns how many records fell outside the vocabulary
// (dropped from coverage).
func (t *Tracker) UnknownRecords() uint64 { return t.unknown.Load() }

// Cutoff returns the current adaptive cut-off.
func (t *Tracker) Cutoff() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cutoff
}

// Doublings returns how many times the cut-off doubled.
func (t *Tracker) Doublings() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.doubled
}

// Snapshot copies the global per-transition counts (indexed by
// TransitionID) into dst, growing it as needed, and returns it. The
// fleet merges snapshots into its union coverage; merging is
// commutative, so the union is identical at any worker count.
func (t *Tracker) Snapshot(dst []uint64) []uint64 {
	if cap(dst) < len(t.counts) {
		dst = make([]uint64, len(t.counts))
	}
	dst = dst[:len(t.counts)]
	for i := range t.counts {
		dst[i] = atomic.LoadUint64(&t.counts[i])
	}
	return dst
}

// Uncovered lists never-seen transitions for reporting, sorted (IDs
// are assigned in sorted transition order, so ID order is sort order).
func (t *Tracker) Uncovered() []Transition {
	var out []Transition
	for id := range t.counts {
		if atomic.LoadUint64(&t.counts[id]) == 0 {
			out = append(out, t.table.entries[id])
		}
	}
	return out
}
