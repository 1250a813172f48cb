package coherence

import (
	"fmt"

	"repro/internal/memsys"
)

// Array is a set-associative cache structure with LRU replacement,
// parameterized over the per-line protocol state. Victim selection takes
// a predicate so controllers never evict lines in transient states.
//
// Tests are tiny next to the cache (§4: 1KB of test memory against
// megabytes of L1+L2) and the array is cleared after every iteration, so
// the array is sparse: a set's ways are allocated on its first Insert,
// and Clear advances an epoch instead of touching entries — an entry is
// valid only while its stamp equals the array's current epoch.
type Array[L any] struct {
	ways int
	sets [][]arrayEntry[L]
	// mask picks a line's set: the set count is a power of two.
	mask  uint64
	clock uint64
	// epoch is the current validity stamp; Reset moves it off zero before
	// first use, so zeroed entries are invalid.
	epoch uint64
}

type arrayEntry[L any] struct {
	// epoch marks the entry valid while it equals the array's.
	epoch uint64
	addr  memsys.Addr
	lru   uint64
	line  L
}

// NewArray returns a sets×ways cache array. Both dimensions must be
// positive and sets a power of two (machine.Config.Validate rejects any
// other cache geometry with an error).
func NewArray[L any](sets, ways int) *Array[L] {
	if sets <= 0 || ways <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("coherence: invalid geometry %dx%d", sets, ways))
	}
	a := &Array[L]{ways: ways, sets: make([][]arrayEntry[L], sets), mask: uint64(sets - 1)}
	a.Reset()
	return a
}

// Reset returns the array to its just-built state — empty, LRU clock at
// zero — keeping the ways its sets have allocated. Which way an insert
// takes and which line Victim picks depend only on the valid entries and
// the order of their LRU stamps, so a reset array replays a fresh one.
func (a *Array[L]) Reset() {
	a.Clear()
	a.clock = 0
}

// GeomFor returns (sets, ways) for a cache of the given total size with
// the given associativity and 64B lines.
func GeomFor(sizeBytes, ways int) (int, int) {
	lines := sizeBytes / memsys.LineSize
	return lines / ways, ways
}

func (a *Array[L]) setIndex(addr memsys.Addr) int {
	return int(uint64(addr) / memsys.LineSize & a.mask)
}

// set returns addr's ways; nil while the set has never been inserted
// into.
func (a *Array[L]) set(addr memsys.Addr) []arrayEntry[L] {
	return a.sets[a.setIndex(addr)]
}

// find returns the valid entry holding the line-aligned addr, or nil.
func (a *Array[L]) find(addr memsys.Addr) *arrayEntry[L] {
	set := a.set(addr)
	for i := range set {
		if set[i].epoch == a.epoch && set[i].addr == addr {
			return &set[i]
		}
	}
	return nil
}

// Lookup returns the line for addr if present, touching LRU state.
func (a *Array[L]) Lookup(addr memsys.Addr) (*L, bool) {
	e := a.find(addr.LineAddr())
	if e == nil {
		return nil, false
	}
	a.clock++
	e.lru = a.clock
	return &e.line, true
}

// Peek returns the line for addr without touching LRU state.
func (a *Array[L]) Peek(addr memsys.Addr) (*L, bool) {
	e := a.find(addr.LineAddr())
	if e == nil {
		return nil, false
	}
	return &e.line, true
}

// HasFree reports whether addr's set has an unused way.
func (a *Array[L]) HasFree(addr memsys.Addr) bool {
	set := a.set(addr)
	if set == nil {
		return true
	}
	for i := range set {
		if set[i].epoch != a.epoch {
			return true
		}
	}
	return false
}

// Insert allocates a way for addr with a zero line and returns it. It
// panics if the line is already present or the set is full; callers must
// evict first.
func (a *Array[L]) Insert(addr memsys.Addr) *L {
	addr = addr.LineAddr()
	if a.find(addr) != nil {
		panic(fmt.Sprintf("coherence: double insert of %s", addr))
	}
	idx := a.setIndex(addr)
	if a.sets[idx] == nil {
		a.sets[idx] = make([]arrayEntry[L], a.ways)
	}
	set := a.sets[idx]
	for i := range set {
		if set[i].epoch != a.epoch {
			a.clock++
			set[i] = arrayEntry[L]{epoch: a.epoch, addr: addr, lru: a.clock}
			return &set[i].line
		}
	}
	panic(fmt.Sprintf("coherence: insert into full set for %s", addr))
}

// Victim returns the least-recently-used line in addr's set satisfying
// the predicate, or ok=false if none qualifies.
func (a *Array[L]) Victim(addr memsys.Addr, canEvict func(*L) bool) (memsys.Addr, *L, bool) {
	set := a.set(addr)
	best := -1
	for i := range set {
		if set[i].epoch != a.epoch || !canEvict(&set[i].line) {
			continue
		}
		if best < 0 || set[i].lru < set[best].lru {
			best = i
		}
	}
	if best < 0 {
		return 0, nil, false
	}
	return set[best].addr, &set[best].line, true
}

// Remove invalidates addr's entry if present.
func (a *Array[L]) Remove(addr memsys.Addr) {
	if e := a.find(addr.LineAddr()); e != nil {
		*e = arrayEntry[L]{}
	}
}

// Range calls fn for every valid line, in (set, way) order, until fn
// returns false.
func (a *Array[L]) Range(fn func(addr memsys.Addr, line *L) bool) {
	for _, set := range a.sets {
		for i := range set {
			if set[i].epoch == a.epoch && !fn(set[i].addr, &set[i].line) {
				return
			}
		}
	}
}

// Clear invalidates every entry in O(1). The LRU clock keeps running
// across clears.
func (a *Array[L]) Clear() { a.epoch++ }

// Count returns the number of valid lines.
func (a *Array[L]) Count() int {
	n := 0
	a.Range(func(memsys.Addr, *L) bool { n++; return true })
	return n
}
