package memmodel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// scanLookup is Lookup's contract executed literally: the first event
// added that carries key.
func scanLookup(b *Builder, key Key) (relation.EventID, bool) {
	for i := range b.x.events {
		if b.x.events[i].Key == key {
			return relation.EventID(i), true
		}
	}
	return 0, false
}

// checkLookups adds one fence per key, in order, and after every add
// that finishes a batch holds Lookup to the linear scan on every key
// present, on its neighbours in both coordinates and on the probes.
func checkLookups(t *testing.T, keys, probes []Key, batch int) {
	t.Helper()
	b := NewBuilder()
	compare := func(k Key) {
		got, gotOK := b.Lookup(k)
		want, wantOK := scanLookup(b, k)
		if got != want || gotOK != wantOK {
			t.Fatalf("after %d events: Lookup(%v) = %d, %v; the first event added with that key is %d, %v",
				len(b.x.events), k, got, gotOK, want, wantOK)
		}
	}
	for i, k := range keys {
		b.FenceKeyed(k, FenceFull)
		if (i+1)%batch != 0 && i+1 != len(keys) {
			continue
		}
		for _, k := range keys[:i+1] {
			compare(k)
			for _, d := range []int{-1, 1} {
				compare(Key{TID: k.TID, Instr: k.Instr + d, Sub: k.Sub})
				compare(Key{TID: k.TID, Instr: k.Instr, Sub: k.Sub + d})
			}
		}
		for _, k := range probes {
			compare(k)
		}
	}
}

// TestBuilderLookupMatchesLinearScan: threads mixing positional keys,
// RMW pairs, sparse pins, descending keys and duplicates, looked up
// while they grow — Lookup must land where a scan from the front does.
func TestBuilderLookupMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 200; round++ {
		threads := 1 + rng.Intn(4)
		next := make([]int, threads)
		ordered := round%4 == 0 // every fourth round keeps every thread ascending
		var keys []Key
		for n := rng.Intn(120); n > 0; n-- {
			tid := rng.Intn(threads)
			k := Key{TID: tid, Instr: next[tid]}
			switch r := rng.Intn(20); {
			case r < 10: // positional
			case r < 13: // RMW pair: two events on one instruction
				keys = append(keys, k)
				k.Sub = 1
			case r < 16: // sparse pin ahead, sometimes with a sub
				k.Instr += 1 + rng.Intn(50)
				k.Sub = rng.Intn(3) * rng.Intn(2)
			case ordered:
			case r < 17: // a pin far out; what follows descends
				k.Instr = math.MaxInt32 - 1 - rng.Intn(3)
			case r < 19 && len(keys) > 0: // duplicate of an earlier key (maybe another thread's)
				k = keys[rng.Intn(len(keys))]
			default: // descending
				k.Instr = rng.Intn(k.Instr + 1)
				k.Sub = rng.Intn(2)
			}
			keys = append(keys, k)
			if k.Instr >= next[k.TID] && k.Instr < math.MaxInt32-8 {
				next[k.TID] = k.Instr + 1
			}
		}
		probes := []Key{
			{TID: 0, Instr: -1}, {TID: 0, Instr: math.MinInt32}, {TID: 0, Instr: math.MaxInt32},
			{TID: 0, Instr: 0, Sub: -1}, {TID: 0, Instr: 0, Sub: math.MaxInt32},
			{TID: threads, Instr: 0}, {TID: -1, Instr: 0}, {TID: InitTID, Instr: 0}, {TID: math.MaxInt32, Instr: 3},
		}
		checkLookups(t, keys, probes, 1+rng.Intn(40))
	}
}

// FuzzBuilderLookup decodes the input into a key list — three bytes a
// key: thread, a signed step from the thread's previous instruction,
// sub — and holds Lookup to the linear scan on it.
func FuzzBuilderLookup(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0})          // ascending with an RMW pair
	f.Add([]byte{0, 9, 0, 0, 0xf8, 0, 0, 0, 0, 0, 0, 0})       // a step back, then duplicates
	f.Add([]byte{2, 0x7f, 2, 2, 0x7f, 1, 2, 0x80, 0, 1, 1, 1}) // large strides both ways
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 600 {
			data = data[:600]
		}
		var keys []Key
		var last [4]int
		for ; len(data) >= 3; data = data[3:] {
			tid := int(data[0] % 4)
			last[tid] += int(int8(data[1]))
			keys = append(keys, Key{TID: tid, Instr: last[tid], Sub: int(data[2] % 4)})
		}
		checkLookups(t, keys, []Key{{TID: 0, Instr: math.MinInt32}, {TID: 3, Instr: math.MaxInt32}, {TID: 4}}, 16)
	})
}
