package memmodel

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/memsys"
	"repro/internal/relation"
)

// fillRandom records one random sequentially consistent execution into
// x: threads interleaved at random, reads observing the latest write.
func fillRandom(x *Execution, rng *rand.Rand, threads, ops, addrs int) {
	last := map[memsys.Addr]relation.EventID{}
	for i := 0; i < ops; i++ {
		tid := rng.Intn(threads)
		addr := memsys.Addr(0x1000 + 8*rng.Intn(addrs))
		key := Key{TID: tid, Instr: i}
		switch rng.Intn(5) {
		case 0, 1:
			w := x.AddEvent(Event{Key: key, Kind: KindWrite, Addr: addr, Value: uint64(i + 1)})
			if err := x.AppendCO(w); err != nil {
				panic(err)
			}
			last[addr] = w
		case 2, 3:
			w, ok := last[addr]
			if !ok {
				w = x.InitWrite(addr)
			}
			r := x.AddEvent(Event{Key: key, Kind: KindRead, Addr: addr, Value: x.Event(w).Value})
			if err := x.SetRF(r, w); err != nil {
				panic(err)
			}
		default:
			x.AddEvent(Event{Key: key, Kind: KindFence, Fence: FenceKind(rng.Intn(int(NumFenceKinds)))})
		}
	}
}

// coEdgesOf and polocEdgesOf return the co and po-loc edges the exact
// checker derives from x, in the order it appends them.
func coEdgesOf(x *Execution) []relation.Edge {
	g := new(relation.Graph)
	x.coEdges(g)
	return g.Edges()
}

func polocEdgesOf(x *Execution) []relation.Edge {
	g := new(relation.Graph)
	x.polocEdges(g, new(AddrMarks))
	return g.Edges()
}

// view flattens everything an execution exposes, the co and po-loc
// edges the exact checker derives from it included.
func view(x *Execution) map[string]any {
	v := map[string]any{
		"events":    append([]Event(nil), x.Events()...),
		"threads":   append([]int(nil), x.Threads()...),
		"addresses": append([]memsys.Addr(nil), x.Addresses()...),
		"co-edges":  coEdgesOf(x),
		"po-loc":    polocEdgesOf(x),
		"slots":     x.NumAddrSlots(),
	}
	for _, tid := range append(x.Threads(), InitTID) {
		v["thread"+Key{TID: tid}.String()] = append([]relation.EventID(nil), x.ThreadEvents(tid)...)
	}
	for _, a := range x.Addresses() {
		v["co"+a.String()] = append([]relation.EventID(nil), x.CO(a)...)
	}
	for i := range x.Events() {
		id := relation.EventID(i)
		if w, ok := x.RF(id); ok {
			v["rf"+x.Event(id).Key.String()] = w
		}
		if pos, ok := x.COIndex(id); ok {
			v["copos"+x.Event(id).Key.String()] = pos
		}
	}
	return v
}

// TestExecutionResetEqualsFresh: an execution reset and refilled is
// indistinguishable from a fresh one given the same events — whatever
// it held before, including threads and addresses the new contents do
// not have — and every model returns the same verdict on both.
func TestExecutionResetEqualsFresh(t *testing.T) {
	reused := NewExecution()
	for round := 0; round < 30; round++ {
		seed := int64(100 + round)
		// Shapes shrink and grow so stale threads and addresses linger.
		threads, ops, addrs := 1+(round*5)%7, 20+(round*37)%200, 1+(round*3)%9
		fresh := NewExecution()
		fillRandom(fresh, rand.New(rand.NewSource(seed)), threads, ops, addrs)
		reused.Reset()
		if reused.NumEvents() != 0 || len(reused.Threads()) != 0 || len(reused.Addresses()) != 0 {
			t.Fatalf("round %d: Reset left %d events, threads %v", round, reused.NumEvents(), reused.Threads())
		}
		fillRandom(reused, rand.New(rand.NewSource(seed)), threads, ops, addrs)
		if got, want := view(reused), view(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: reset execution differs from fresh:\n got  %v\n want %v", round, got, want)
		}
		if err := reused.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, arch := range []Arch{SC{}, TSO{}, PSO{}, RMO{}} {
			if got, want := NewChecker().Check(reused, arch), NewChecker().Check(fresh, arch); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d %s: verdict %+v on the reset execution, %+v on the fresh one", round, arch.Name(), got, want)
			}
		}
	}
}

// TestResetForgetsThreadsAndAddresses: what the first use had and the
// second lacks is gone from every accessor — not an empty thread, not an
// address with an empty coherence order, not a co or po-loc edge.
func TestResetForgetsThreadsAndAddresses(t *testing.T) {
	x := NewExecution()
	fillRandom(x, rand.New(rand.NewSource(9)), 7, 300, 9)
	if len(x.Threads()) != 7 || len(x.Addresses()) != 9 {
		t.Fatalf("first use: threads %v, addresses %v", x.Threads(), x.Addresses())
	}
	gone := x.Addresses()[8]
	x.Reset()

	const tid, addr = 1 << 30, memsys.Addr(0x2000)
	w := x.AddEvent(Event{Key: Key{TID: tid}, Kind: KindWrite, Addr: addr, Value: 1})
	if err := x.AppendCO(w); err != nil {
		t.Fatal(err)
	}
	r := x.AddEvent(Event{Key: Key{TID: tid, Instr: 1}, Kind: KindRead, Addr: addr, Value: 1})
	if err := x.SetRF(r, w); err != nil {
		t.Fatal(err)
	}
	if got := x.Threads(); !reflect.DeepEqual(got, []int{tid}) {
		t.Errorf("Threads = %v, want [%d]", got, tid)
	}
	if got := x.Addresses(); !reflect.DeepEqual(got, []memsys.Addr{addr}) {
		t.Errorf("Addresses = %v, want [%v]", got, addr)
	}
	for stale := 0; stale < 7; stale++ {
		if ids := x.ThreadEvents(stale); len(ids) != 0 {
			t.Errorf("thread %d of the first use still has events %v", stale, ids)
		}
	}
	if co := x.CO(gone); co != nil {
		t.Errorf("CO(%v) of the first use = %v, want none", gone, co)
	}
	if got := x.CO(addr); !reflect.DeepEqual(got, []relation.EventID{w}) {
		t.Errorf("CO(%v) = %v, want [%d]", addr, got, w)
	}
	if n := x.NumAddrSlots(); n != 1 {
		t.Errorf("%d address slots, want 1", n)
	}
	if n := len(coEdgesOf(x)); n != 0 {
		t.Errorf("%d co edges, want none", n)
	}
	if got := polocEdgesOf(x); !reflect.DeepEqual(got, []relation.Edge{{From: w, To: r}}) {
		t.Errorf("po-loc edges %v, want [%d->%d]", got, w, r)
	}
}

// TestAddressesComputedOncePerExecution: the address set is computed on
// first use and answered from the execution's own storage afterwards —
// a checked iteration asks for it three times — until an event is added
// or the execution is reset.
func TestAddressesComputedOncePerExecution(t *testing.T) {
	x := NewExecution()
	fillRandom(x, rand.New(rand.NewSource(4)), 4, 120, 6)
	want := append([]memsys.Addr(nil), x.Addresses()...)
	if len(want) != 6 {
		t.Fatalf("Addresses = %v, want 6 distinct", want)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, a := range x.Addresses() {
			x.CO(a)
		}
		for _, tid := range x.Threads() {
			x.ThreadEvents(tid)
		}
	}); n != 0 {
		t.Fatalf("repeated Addresses and Threads calls allocate %.0f objects, want 0", n)
	}
	if got := x.Addresses(); !reflect.DeepEqual(got, want) {
		t.Fatalf("repeated call returned %v, first %v", got, want)
	}

	// A read of a word nobody touched: one event, then its initial write.
	fresh := memsys.Addr(0x10)
	r := x.AddEvent(Event{Key: Key{TID: 0, Instr: 999}, Kind: KindRead, Addr: fresh})
	if got := x.Addresses(); len(got) != 7 || got[0] != fresh {
		t.Fatalf("after AddEvent: %v, want %v first of 7", got, fresh)
	}
	if err := x.SetRF(r, x.InitWrite(fresh)); err != nil {
		t.Fatal(err)
	}
	if got := x.Addresses(); len(got) != 7 {
		t.Fatalf("after InitWrite: %v", got)
	}
	x.Reset()
	if got := x.Addresses(); len(got) != 0 {
		t.Fatalf("after Reset: %v, want none", got)
	}
}
