package coherence

import (
	"math/rand"
	"testing"

	"repro/internal/memsys"
)

// refArray is the dense reference implementation the sparse Array
// replaced: every way of every set allocated up front, a valid bit per
// entry, and a Clear that wipes them all.
type refArray struct {
	sets, ways int
	entries    []refEntry
	clock      uint64
}

type refEntry struct {
	valid bool
	addr  memsys.Addr
	lru   uint64
	line  int
}

func newRefArray(sets, ways int) *refArray {
	return &refArray{sets: sets, ways: ways, entries: make([]refEntry, sets*ways)}
}

func (a *refArray) set(addr memsys.Addr) []refEntry {
	idx := int(uint64(addr) / memsys.LineSize % uint64(a.sets))
	return a.entries[idx*a.ways : (idx+1)*a.ways]
}

func (a *refArray) find(addr memsys.Addr, touch bool) (*int, bool) {
	addr = addr.LineAddr()
	set := a.set(addr)
	for i := range set {
		if set[i].valid && set[i].addr == addr {
			if touch {
				a.clock++
				set[i].lru = a.clock
			}
			return &set[i].line, true
		}
	}
	return nil, false
}

func (a *refArray) hasFree(addr memsys.Addr) bool {
	for _, e := range a.set(addr) {
		if !e.valid {
			return true
		}
	}
	return false
}

// insert returns the chosen way's line and index within the set.
func (a *refArray) insert(addr memsys.Addr) (*int, int) {
	addr = addr.LineAddr()
	set := a.set(addr)
	for i := range set {
		if !set[i].valid {
			a.clock++
			set[i] = refEntry{valid: true, addr: addr, lru: a.clock}
			return &set[i].line, i
		}
	}
	panic("reference: insert into full set")
}

func (a *refArray) victim(addr memsys.Addr, canEvict func(*int) bool) (memsys.Addr, bool) {
	set := a.set(addr)
	best := -1
	for i := range set {
		if !set[i].valid || !canEvict(&set[i].line) {
			continue
		}
		if best < 0 || set[i].lru < set[best].lru {
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	return set[best].addr, true
}

func (a *refArray) remove(addr memsys.Addr) {
	addr = addr.LineAddr()
	set := a.set(addr)
	for i := range set {
		if set[i].valid && set[i].addr == addr {
			set[i] = refEntry{}
			return
		}
	}
}

func (a *refArray) clear() {
	for i := range a.entries {
		a.entries[i] = refEntry{}
	}
}

func (a *refArray) contents() (addrs []memsys.Addr, lines []int) {
	for _, e := range a.entries {
		if e.valid {
			addrs = append(addrs, e.addr)
			lines = append(lines, e.line)
		}
	}
	return
}

// wayOf reports which way of its set holds the line-aligned addr.
func wayOf(a *Array[int], addr memsys.Addr) int {
	for i, e := range a.set(addr) {
		if e.epoch == a.epoch && e.addr == addr {
			return i
		}
	}
	return -1
}

// TestArrayMatchesDenseReference drives the sparse array and the dense
// reference through the same random operation stream over many Clear
// epochs: every return value, every chosen way, every LRU victim and the
// Range order must agree.
func TestArrayMatchesDenseReference(t *testing.T) {
	const sets, ways = 8, 4
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, ref := NewArray[int](sets, ways), newRefArray(sets, ways)
		// 3 lines per way per set: sets fill up and victims matter.
		pool := make([]memsys.Addr, sets*ways*3)
		for i := range pool {
			pool[i] = memsys.Addr(0x40000 + i*memsys.LineSize)
		}
		evictOdd := func(l *int) bool { return *l%2 == 1 }
		for step := 0; step < 20000; step++ {
			addr := pool[rng.Intn(len(pool))] + memsys.Addr(rng.Intn(memsys.LineSize))
			switch op := rng.Intn(100); {
			case op < 30: // insert, evicting if needed
				if _, ok := ref.find(addr, false); ok {
					continue
				}
				if !ref.hasFree(addr) {
					v, ok := ref.victim(addr, evictOdd)
					gv, _, gok := a.Victim(addr, evictOdd)
					if ok != gok || v != gv {
						t.Fatalf("seed %d step %d: Victim = (%v,%v), reference (%v,%v)", seed, step, gv, gok, v, ok)
					}
					if !ok {
						continue
					}
					ref.remove(v)
					a.Remove(v)
				}
				val := rng.Intn(1000)
				rl, way := ref.insert(addr)
				*rl = val
				gl := a.Insert(addr)
				if *gl != 0 {
					t.Fatalf("seed %d step %d: Insert returned a non-zero line %d", seed, step, *gl)
				}
				*gl = val
				if got := wayOf(a, addr.LineAddr()); got != way {
					t.Fatalf("seed %d step %d: Insert chose way %d, reference %d", seed, step, got, way)
				}
			case op < 55:
				rl, rok := ref.find(addr, true)
				gl, gok := a.Lookup(addr)
				if rok != gok || (rok && *rl != *gl) {
					t.Fatalf("seed %d step %d: Lookup mismatch", seed, step)
				}
			case op < 70:
				rl, rok := ref.find(addr, false)
				gl, gok := a.Peek(addr)
				if rok != gok || (rok && *rl != *gl) {
					t.Fatalf("seed %d step %d: Peek mismatch", seed, step)
				}
			case op < 80:
				ref.remove(addr)
				a.Remove(addr)
			case op < 88:
				if ref.hasFree(addr) != a.HasFree(addr) {
					t.Fatalf("seed %d step %d: HasFree mismatch", seed, step)
				}
			case op < 97:
				wantAddrs, wantLines := ref.contents()
				var gotAddrs []memsys.Addr
				var gotLines []int
				a.Range(func(addr memsys.Addr, l *int) bool {
					gotAddrs, gotLines = append(gotAddrs, addr), append(gotLines, *l)
					return true
				})
				if len(gotAddrs) != len(wantAddrs) || a.Count() != len(wantAddrs) {
					t.Fatalf("seed %d step %d: Range saw %d lines, Count %d, reference %d", seed, step, len(gotAddrs), a.Count(), len(wantAddrs))
				}
				for i := range wantAddrs {
					if gotAddrs[i] != wantAddrs[i] || gotLines[i] != wantLines[i] {
						t.Fatalf("seed %d step %d: Range order diverges at %d", seed, step, i)
					}
				}
			default:
				ref.clear()
				a.Clear()
				if a.Count() != 0 {
					t.Fatalf("seed %d step %d: %d lines survive Clear", seed, step, a.Count())
				}
			}
			if a.clock != ref.clock {
				t.Fatalf("seed %d step %d: LRU clock %d, reference %d", seed, step, a.clock, ref.clock)
			}
		}
	}
}

// TestArrayRangeStops checks Range's early exit.
func TestArrayRangeStops(t *testing.T) {
	a := NewArray[int](4, 2)
	for i := 0; i < 6; i++ {
		a.Insert(memsys.Addr(i * memsys.LineSize))
	}
	n := 0
	a.Range(func(memsys.Addr, *int) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("Range visited %d lines after being told to stop at 3", n)
	}
}

// TestArrayClearReinsertAllocatesNothing pins the steady state of the
// per-iteration reset: once a test's sets exist, clearing the array and
// inserting the same lines again touches no allocator — and Clear itself
// costs the same whatever the geometry.
func TestArrayClearReinsertAllocatesNothing(t *testing.T) {
	a := NewArray[mesiL2Line](512, 4) // Table 2 L2 tile
	lines := make([]memsys.Addr, 16)
	for i := range lines {
		lines[i] = memsys.DefaultBase + memsys.Addr(i*memsys.LineSize)
	}
	cycle := func() {
		a.Clear()
		for _, l := range lines {
			a.Insert(l).state = l2SS
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("Clear + re-Insert allocates %.0f objects per cycle, want 0", n)
	}
	allocated := 0
	for _, set := range a.sets {
		if set != nil {
			allocated++
		}
	}
	if allocated != len(lines) {
		t.Fatalf("%d sets allocated for %d lines in distinct sets", allocated, len(lines))
	}
}
