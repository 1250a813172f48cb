package trace

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/memmodel/exectest"
)

// TestMaterializeErrorPrecedence: the first malformed thing in trace
// order is the one reported, whichever kind it is — a duplicate key
// found after the walk still comes before a later thread's redeclaration
// or unknown op — and sticky builder errors surface last, at Build.
func TestMaterializeErrorPrecedence(t *testing.T) {
	w := func(instr int) Op {
		return Op{Kind: OpWrite, Addr: 0x100, Value: uint64(instr + 1), Keyed: true, Instr: instr}
	}
	for name, tc := range map[string]struct {
		tr   *Trace
		want string
	}{
		"duplicate before redeclaration": {&Trace{Threads: []Thread{
			{TID: 0, Ops: []Op{w(4), w(2), w(4)}}, {TID: 1}, {TID: 1},
		}}, "duplicate event key 0:4"},
		"redeclaration before duplicate": {&Trace{Threads: []Thread{
			{TID: 1}, {TID: 0}, {TID: 1, Ops: []Op{w(4), w(4)}},
		}}, "thread 1 declared twice"},
		"first of two redeclarations": {&Trace{Threads: []Thread{
			{TID: 5}, {TID: 3}, {TID: 3}, {TID: 5},
		}}, "thread 3 declared twice"},
		"duplicate before unknown kind": {&Trace{Threads: []Thread{
			{TID: 2, Ops: []Op{w(1), w(1), {Kind: numOpKinds}}},
		}}, "duplicate event key 2:1"},
		"unknown kind before duplicate": {&Trace{Threads: []Thread{
			{TID: 2, Ops: []Op{w(1), {Kind: numOpKinds}, w(1)}},
		}}, "thread 2 op 1: unknown kind 4"},
		"first duplicate in insertion order": {&Trace{Threads: []Thread{
			{TID: 0, Ops: []Op{w(9), w(3), w(3), w(9)}},
		}}, "duplicate event key 0:3"},
		"unknown ref before sticky fence kind": {&Trace{
			Threads: []Thread{{TID: 0, Ops: []Op{{Kind: OpFence, Fence: 9}, {Kind: OpRead, Addr: 0x100}}}},
			RF:      []RFEdge{{Read: Ref{TID: 0, Instr: 7}, Init: true}},
		}, "rf references unknown event 0:7"},
		"refused fence still owns its key": {&Trace{
			Threads: []Thread{{TID: 0, Ops: []Op{{Kind: OpFence, Fence: 9}, {Kind: OpRead, Addr: 0x100, Keyed: true}}}},
		}, "duplicate event key 0:0"},
	} {
		_, err := tc.tr.Execution()
		if err == nil || !strings.HasSuffix(err.Error(), tc.want) {
			t.Errorf("%s: %v, want ...%s", name, err, tc.want)
		}
	}
}

// TestMaterializerReuseMatchesFresh: a Materializer fed traces of every
// size in shuffled order returns, trace for trace, what Trace.Execution
// returns on storage of its own.
func TestMaterializerReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var traces []*Trace
	for i := 0; i < 40; i++ {
		tr, err := FromExecution("", randExec(rng))
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	traces = append(traces, extremeTrace(), residue, &Trace{}, &Trace{Threads: []Thread{{TID: 4}, {TID: 4}}})
	var m Materializer
	for round := 0; round < 3; round++ {
		rng.Shuffle(len(traces), func(i, j int) { traces[i], traces[j] = traces[j], traces[i] })
		for _, tr := range traces {
			materializeBothWays(t, tr)
			// And through the one long-lived materializer.
			fresh, ferr := tr.Execution()
			reused, rerr := m.Execution(tr)
			if (ferr == nil) != (rerr == nil) || (ferr != nil && ferr.Error() != rerr.Error()) {
				t.Fatalf("fresh: %v, reused: %v", ferr, rerr)
			}
			if ferr == nil && fresh.NumEvents() != reused.NumEvents() {
				t.Fatalf("%d events fresh, %d reused", fresh.NumEvents(), reused.NumEvents())
			}
		}
	}
}

// allocatedBytes returns the heap bytes one call of f allocates (the
// least of a few calls, so a stray background allocation does not count).
func allocatedBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestMaterializeSizedByCountsNotValues: the three-op trace carrying
// TID and Instr 2³¹−1, sparse keys and address 2⁶⁴−8 materializes in
// exactly the bytes its twin with small values takes, within a fixed
// bound — storage is sized by how many things a trace has, never by what
// they are called.
func TestMaterializeSizedByCountsNotValues(t *testing.T) {
	extreme := extremeTrace()
	twin := &Trace{
		Name: "twin...", // as long as "extreme": the name reaches no allocation, but keep the inputs alike
		Threads: []Thread{
			{TID: 4, Ops: []Op{
				{Kind: OpWrite, Addr: 0x100, Value: 9, Keyed: true, Instr: 2},
				{Kind: OpRMW, Addr: 0x100, Value: 9, Value2: 1, Keyed: true, Instr: 5},
			}},
			{TID: 3, Ops: []Op{{Kind: OpRead, Addr: 0x100, Value: 1, Keyed: true, Instr: 5, Sub: 5}}},
		},
		RF: []RFEdge{
			{Read: Ref{TID: 4, Instr: 5}, Write: Ref{TID: 4, Instr: 2}},
			{Read: Ref{TID: 3, Instr: 5, Sub: 5}, Write: Ref{TID: 4, Instr: 5, Sub: 1}},
		},
		CO: []COOrder{{Addr: 0x100, Writes: []Ref{{TID: 4, Instr: 2}, {TID: 4, Instr: 5, Sub: 1}}}},
	}
	materialize := func(tr *Trace) func() {
		return func() {
			if _, err := tr.Execution(); err != nil {
				t.Fatal(err)
			}
		}
	}
	small, large := allocatedBytes(materialize(twin)), allocatedBytes(materialize(extreme))
	t.Logf("%d B with small values, %d B with the largest", small, large)
	const bound = 8 << 10
	if small != large || large > bound {
		t.Fatalf("%d B allocated with small values, %d B with the largest (bound %d)", small, large, bound)
	}
}

// TestMaterializeIntoGrownStorageAllocatesNothing: once a Materializer
// has held a trace, materializing it again — threads, address table,
// key lookups, coherence orders, the sorted address list — happens
// entirely in what it kept.
func TestMaterializeIntoGrownStorageAllocatesNothing(t *testing.T) {
	tr, err := FromExecution("grown", exectest.SC(2))
	if err != nil {
		t.Fatal(err)
	}
	var m Materializer
	if _, err := m.Execution(tr); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() {
		if _, err := m.Execution(tr); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("materializing into grown storage allocates %.0f objects, want 0", n)
	}
}
