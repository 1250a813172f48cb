package memmodel

import (
	"math/rand"
	"testing"

	"repro/internal/memsys"
	"repro/internal/relation"
)

// reachable reports whether to is reachable from from in g.
func reachable(g *relation.Graph, from, to relation.EventID) bool {
	seen := map[relation.EventID]bool{from: true}
	stack := []relation.EventID{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Edges() {
			if e.From != n {
				continue
			}
			if e.To == to {
				return true
			}
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return false
}

// naiveTSOOrdered is the textbook definition of TSO's preserved program
// order between two po-ordered events (i before j), including fence
// transitivity.
func naiveTSOOrdered(events []Event, i, j int) bool {
	a, b := events[i], events[j]
	aK, bK := a.Kind, b.Kind
	if a.IsFence() || b.IsFence() {
		return true
	}
	// W→R is relaxed unless a fence lies strictly between.
	if aK == KindWrite && bK == KindRead {
		for k := i + 1; k < j; k++ {
			if events[k].IsFence() {
				return true
			}
		}
		return false
	}
	return true
}

// TestTSOPPOEdgesMatchNaive cross-checks the compact reachability edge
// set produced for TSO's row against the naive all-pairs definition on
// random single-thread programs.
func TestTSOPPOEdgesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		x := NewExecution()
		n := 2 + rng.Intn(12)
		var ids []relation.EventID
		for i := 0; i < n; i++ {
			var k Kind
			switch rng.Intn(5) {
			case 0:
				k = KindFence
			case 1, 2:
				k = KindWrite
			default:
				k = KindRead
			}
			ids = append(ids, x.AddEvent(Event{
				Key:  Key{TID: 0, Instr: i},
				Kind: k,
				Addr: memsys.Addr(0x1000),
			}))
		}
		r := new(relation.Graph)
		ppoEdges(x, ids, TSO{}.Row(), r)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				want := naiveTSOOrdered(x.Events(), i, j)
				got := reachable(r, ids[i], ids[j])
				if got != want {
					t.Fatalf("trial %d: events %v: ordered(%d,%d) = %v, want %v\nedges: %v",
						trial, x.Events(), i, j, got, want, r.Edges())
				}
				// Never any backwards ordering.
				if reachable(r, ids[j], ids[i]) {
					t.Fatalf("trial %d: backwards reachability %d<-%d", trial, i, j)
				}
			}
		}
	}
}

func TestSCPPOEdgesTotal(t *testing.T) {
	x := NewExecution()
	var ids []relation.EventID
	for i := 0; i < 6; i++ {
		k := KindRead
		if i%2 == 0 {
			k = KindWrite
		}
		ids = append(ids, x.AddEvent(Event{Key: Key{TID: 0, Instr: i}, Kind: k, Addr: 0x1000}))
	}
	r := new(relation.Graph)
	ppoEdges(x, ids, SC{}.Row(), r)
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if !reachable(r, ids[i], ids[j]) {
				t.Fatalf("SC: %d does not reach %d", i, j)
			}
		}
	}
}

// TestSCStricterThanTSO: any execution valid under SC must be valid under
// TSO (SC ⊆ TSO permissiveness), on randomized small executions.
func TestSCStricterThanTSO(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	addrs := []memsys.Addr{0x1000, 0x1040, 0x1080}
	for trial := 0; trial < 400; trial++ {
		// Build a random sequentially-consistent execution by
		// interleaving ops and tracking real memory contents.
		x := NewExecution()
		mem := map[memsys.Addr]relation.EventID{}
		val := map[memsys.Addr]uint64{}
		instr := map[int]int{}
		nOps := 3 + rng.Intn(10)
		var pendingRF []struct {
			r relation.EventID
			w relation.EventID
			a memsys.Addr
		}
		for i := 0; i < nOps; i++ {
			tid := 1 + rng.Intn(3)
			a := addrs[rng.Intn(len(addrs))]
			in := instr[tid]
			instr[tid] = in + 1
			if rng.Intn(2) == 0 {
				v := uint64(i + 1)
				id := x.AddEvent(Event{Key: Key{TID: tid, Instr: in}, Kind: KindWrite, Addr: a, Value: v})
				if err := x.AppendCO(id); err != nil {
					t.Fatal(err)
				}
				mem[a], val[a] = id, v
			} else {
				id := x.AddEvent(Event{Key: Key{TID: tid, Instr: in}, Kind: KindRead, Addr: a, Value: val[a]})
				var w relation.EventID
				if v, ok := mem[a]; ok {
					w = v
				} else {
					w = x.InitWrite(a)
				}
				pendingRF = append(pendingRF, struct {
					r relation.EventID
					w relation.EventID
					a memsys.Addr
				}{id, w, a})
			}
		}
		for _, p := range pendingRF {
			if err := x.SetRF(p.r, p.w); err != nil {
				t.Fatal(err)
			}
		}
		sc := NewChecker().Check(x, SC{})
		if !sc.Valid {
			t.Fatalf("trial %d: interleaved execution invalid under SC: %s", trial, sc.Detail)
		}
		tso := NewChecker().Check(x, TSO{})
		if !tso.Valid {
			t.Fatalf("trial %d: SC-valid execution invalid under TSO: %s", trial, tso.Detail)
		}
	}
}

// TestArchitecturesRegistry checks that the model table registers SC and
// TSO under their names, each with the row that defines it.
func TestArchitecturesRegistry(t *testing.T) {
	for _, tc := range []struct {
		name string
		row  Row
	}{{"SC", SC{}.Row()}, {"TSO", TSO{}.Row()}} {
		a, err := ByName(tc.name)
		if err != nil {
			t.Errorf("%s missing: %v", tc.name, err)
			continue
		}
		if a.Row() != tc.row {
			t.Errorf("ByName(%q).Row() = %v, want %v", tc.name, a.Row(), tc.row)
		}
	}
}

func TestEventStringAndKinds(t *testing.T) {
	e := Event{Key: Key{TID: 1, Instr: 2}, Kind: KindWrite, Addr: 0x40, Value: 5}
	if e.String() == "" || KindRead.String() != "R" || KindWrite.String() != "W" || KindFence.String() != "F" {
		t.Error("String methods broken")
	}
	init := Event{Key: Key{TID: InitTID}}
	if !init.IsInit() {
		t.Error("IsInit wrong")
	}
	f := Event{Kind: KindFence}
	if !f.IsFence() {
		t.Error("fence IsFence wrong")
	}
	at := Event{Kind: KindRead, Atomic: true}
	if !at.IsFence() || !at.IsRead() {
		t.Error("atomic read flags wrong")
	}
}
