package memmodel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/memsys"
)

// adversarialAddrs returns n addresses picked against the table: 0 and
// the last word, strides that share every low bit, and a family the
// table's own hash sends to one cell (multiples of the multiplier's
// inverse: their products are 0, 1, 2, …, whose high bits are all zero).
func adversarialAddrs(n int) []memsys.Addr {
	const mult = 0x9e3779b97f4a7c15
	inv := uint64(mult) // Newton's iteration for the inverse mod 2⁶⁴
	for i := 0; i < 6; i++ {
		inv *= 2 - mult*inv
	}
	if inv*mult != 1 {
		panic("not the inverse")
	}
	out := []memsys.Addr{0, math.MaxUint64 - 7}
	for i := 0; len(out) < n; i++ {
		k := uint64(i + 1)
		out = append(out, memsys.Addr(k<<32), memsys.Addr(k<<48), memsys.Addr(k<<16), memsys.Addr(k*inv))
	}
	return out[:n]
}

// TestAddressTableMatchesMap: slotOf and findAddr against a map, over
// random and adversarial addresses each asked for several times, across
// Resets from a large set to small ones and across the generation stamp's
// wrap — slots number addresses in order of first use, an address never
// named since the last Reset is absent however recently its cell was
// written, and the table's size follows the count of addresses only.
func TestAddressTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := NewExecution()
	var previous []memsys.Addr
	for round, n := range []int{12000, 5, 300, 0, 1, 3000, 16, 17} {
		if round == 1 {
			// The next two Resets cross the wrap, after which the stamps
			// the first round left in 12 000 cells come round again.
			x.gen = math.MaxUint32 - 1
		}
		x.Reset()
		addrs := adversarialAddrs(n / 2)
		for len(addrs) < n {
			addrs = append(addrs, memsys.Addr(rng.Uint64()>>uint(rng.Intn(64))))
		}
		rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })

		ref := map[memsys.Addr]int{}
		for _, a := range previous {
			if got := x.findAddr(a); got != -1 {
				t.Fatalf("round %d: address %v of an earlier round is still in slot %d after Reset", round, a, got)
			}
		}
		for i := 0; i < 3*n; i++ {
			a := addrs[rng.Intn(n)]
			if i < n {
				a = addrs[i]
			}
			want, known := ref[a]
			if !known {
				if got := x.findAddr(a); got != -1 {
					t.Fatalf("round %d: findAddr(%v) = %d before its first use", round, a, got)
				}
				want = len(ref)
				ref[a] = want
			}
			if got := int(x.slotOf(a)); got != want {
				t.Fatalf("round %d: slotOf(%v) = %d, want %d", round, a, got, want)
			}
			if got := int(x.findAddr(a)); got != want {
				t.Fatalf("round %d: findAddr(%v) = %d, want %d", round, a, got, want)
			}
		}
		if x.NumAddrSlots() != len(ref) {
			t.Fatalf("round %d: %d slots, want %d", round, x.NumAddrSlots(), len(ref))
		}
		for a, want := range ref {
			if got := int(x.findAddr(a)); got != want || x.addrTab[got].addr != a {
				t.Fatalf("round %d: findAddr(%v) = %d, want %d", round, a, got, want)
			}
		}
		if round == 0 && (len(x.cells) < 2*len(ref) || len(x.cells) >= 4*len(ref)) {
			t.Fatalf("%d cells for %d addresses, want between two and four each", len(x.cells), len(ref))
		}
		previous = append(previous, addrs...)
	}
}
