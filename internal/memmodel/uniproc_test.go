package memmodel

import (
	"math/rand"
	"testing"

	"repro/internal/memsys"
	"repro/internal/relation"
)

// scrambled records a random well-formed execution whose rf and co are
// not those of any interleaving: a read takes any same-address write
// (or the initial one) as its source, and each address's writes enter
// co in creation order disturbed by random swaps. Some are coherent,
// most are not.
func scrambled(rng *rand.Rand, threads, ops, addrs int) *Execution {
	x := NewExecution()
	writes := map[memsys.Addr][]relation.EventID{}
	for i := 0; i < ops; i++ {
		key := Key{TID: rng.Intn(threads), Instr: i}
		addr := memsys.Addr(0x1000 + 8*rng.Intn(addrs))
		switch rng.Intn(5) {
		case 0, 1:
			w := x.AddEvent(Event{Key: key, Kind: KindWrite, Addr: addr, Value: uint64(i + 1)})
			writes[addr] = append(writes[addr], w)
		case 2, 3:
			w := x.InitWrite(addr)
			if ws := writes[addr]; len(ws) > 0 {
				// Mostly the latest write, as a coherent run would.
				w = ws[len(ws)-1]
				if rng.Intn(4) == 0 {
					w = ws[rng.Intn(len(ws))]
				}
			}
			r := x.AddEvent(Event{Key: key, Kind: KindRead, Addr: addr, Value: x.Event(w).Value})
			if err := x.SetRF(r, w); err != nil {
				panic(err)
			}
		default:
			x.AddEvent(Event{Key: key, Kind: KindFence, Fence: FenceKind(rng.Intn(int(NumFenceKinds)))})
		}
	}
	for a := 0; a < addrs; a++ {
		ws := writes[memsys.Addr(0x1000+8*a)]
		if len(ws) > 1 && rng.Intn(3) == 0 {
			i := rng.Intn(len(ws) - 1)
			ws[i], ws[i+1] = ws[i+1], ws[i]
		}
		for _, w := range ws {
			if err := x.AppendCO(w); err != nil {
				panic(err)
			}
		}
	}
	return x
}

// TestCheckUniprocMatchesGraph holds the frontier scan to the constraint
// as written: on coherent and incoherent executions alike it must agree
// with acyclic(po-loc ∪ rf ∪ co ∪ fr) decided on the graph, which check
// builds only after the scan has already said "violation".
func TestCheckUniprocMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(0xc0))
	var marks AddrMarks
	g := new(relation.Graph)
	seen := map[bool]int{}
	for i := 0; i < 2000; i++ {
		x := scrambled(rng, 1+rng.Intn(4), 4+rng.Intn(40), 1+rng.Intn(4))
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
		x.coreEdges(g)
		x.polocEdges(g, &marks)
		g.Cut()
		x.rfEdges(g, false)
		want := g.Acyclic()
		if got := CheckUniproc(x, &marks); got != want {
			t.Fatalf("execution %d: scan says coherent=%v, the graph says %v\n%v", i, got, want, x.Events())
		}
		seen[want]++
	}
	if seen[true] < 200 || seen[false] < 200 {
		t.Fatalf("lopsided sample: %d coherent, %d incoherent", seen[true], seen[false])
	}
}
