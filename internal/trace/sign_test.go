package trace

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/collective"
	"repro/internal/memmodel"
	"repro/internal/memsys"
)

// canonicalResidue is residue in the canonical shape: what a Materializer
// that signs traces held before the one under test — co orders, an
// address read only from its initial write, an RMW and a fence.
var canonicalResidue = func() *Trace {
	x, err := residue.Execution()
	if err != nil {
		panic(err)
	}
	tr, err := FromExecution("residue", x)
	if err != nil {
		panic(err)
	}
	return tr
}()

// checkDirect holds Sign to the execution walker on tr, whose execution
// is x (nil when tr does not materialize): a fresh Materializer and one
// that signed another trace before answer alike, and whenever they
// answer for a trace that materializes, the answer is
// collective.Signature(x). It reports whether Sign answered.
func checkDirect(t testing.TB, tr *Trace, x *memmodel.Execution) bool {
	t.Helper()
	var fresh, used Materializer
	sig, ok := fresh.Sign(tr)
	if _, ok := used.Sign(canonicalResidue); !ok {
		t.Fatal("the canonical residue did not sign directly")
	}
	if usig, uok := used.Sign(tr); usig != sig || uok != ok {
		t.Fatalf("%s: Sign answers %s, %v fresh and %s, %v on used storage", tr.Name, sig, ok, usig, uok)
	}
	if ok && x != nil {
		if want := collective.Signature(x); sig != want {
			t.Fatalf("%s: Sign answers %s, the execution signs as %s", tr.Name, sig, want)
		}
	}
	return ok
}

// executionOf is tr's execution, nil when it does not materialize.
func executionOf(tr *Trace) *memmodel.Execution {
	x, err := tr.Execution()
	if err != nil {
		return nil
	}
	return x
}

// TestSignTraceMatchesExecution: on random executions as canonical
// traces, and on their text and binary round trips, Sign answers without
// falling back and answers what the built execution signs as; on the
// extreme and residue traces it agrees whenever it answers, and their
// canonical forms sign directly.
func TestSignTraceMatchesExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5167))
	for i := 0; i < 3000; i++ {
		tr, err := FromExecution("rand", randExec(rng))
		if err != nil {
			t.Fatal(err)
		}
		var text, bin bytes.Buffer
		if err := WriteText(&text, tr); err != nil {
			t.Fatal(err)
		}
		if err := WriteBinary(&bin, tr); err != nil {
			t.Fatal(err)
		}
		fromText, err := DecodeAll(&text)
		if err != nil {
			t.Fatal(err)
		}
		fromBin, err := DecodeAll(&bin)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []*Trace{tr, fromText[0], fromBin[0]} {
			x := executionOf(v)
			if x == nil {
				t.Fatalf("iter %d: a canonical trace did not materialize", i)
			}
			if !checkDirect(t, v, x) {
				t.Fatalf("iter %d: a canonical trace fell back to materializing", i)
			}
		}
	}
	for _, tr := range []*Trace{extremeTrace(), residue} {
		x := executionOf(tr)
		checkDirect(t, tr, x)
		canon, err := FromExecution(tr.Name, x)
		if err != nil {
			t.Fatal(err)
		}
		if !checkDirect(t, canon, executionOf(canon)) {
			t.Fatalf("%s: the canonical form fell back to materializing", tr.Name)
		}
	}
}

// TestSignAllocatesNothing: a Materializer that has signed a trace signs
// it again in its own storage.
func TestSignAllocatesNothing(t *testing.T) {
	tr := benchTrace(t)
	var m Materializer
	want, ok := m.Sign(tr)
	if !ok {
		t.Fatal("the benchmark trace fell back to materializing")
	}
	var got collective.Sig
	if n := testing.AllocsPerRun(20, func() { got, _ = m.Sign(tr) }); n != 0 || got != want {
		t.Fatalf("Sign allocates %.0f objects (want 0) and answers %s (want %s)", n, got, want)
	}
}

// remapTID renames thread from to to everywhere it is named.
func remapTID(tr *Trace, from, to int32) {
	for i := range tr.Threads {
		if tr.Threads[i].TID == from {
			tr.Threads[i].TID = to
		}
	}
	ref := func(r *Ref) {
		if r.TID == from {
			r.TID = to
		}
	}
	for i := range tr.RF {
		ref(&tr.RF[i].Read)
		ref(&tr.RF[i].Write)
	}
	for i := range tr.CO {
		for j := range tr.CO[i].Writes {
			ref(&tr.CO[i].Writes[j])
		}
	}
}

// remapAddr moves every access to from, and its co order, to to.
func remapAddr(tr *Trace, from, to memsys.Addr) {
	for i := range tr.Threads {
		for j := range tr.Threads[i].Ops {
			if op := &tr.Threads[i].Ops[j]; op.Kind != OpFence && op.Addr == from {
				op.Addr = to
			}
		}
	}
	for i := range tr.CO {
		if tr.CO[i].Addr == from {
			tr.CO[i].Addr = to
		}
	}
}

// mutate edits a canonical trace as the bytes of muts say, two at a time
// (an edit and its argument): some edits keep the canonical shape and the
// execution, some keep the shape and break the execution, some leave the
// shape.
func mutate(tr *Trace, muts []byte) {
	ops := func(arg int) (*Thread, *Op) {
		if len(tr.Threads) == 0 {
			return nil, nil
		}
		th := &tr.Threads[arg%len(tr.Threads)]
		if len(th.Ops) == 0 {
			return th, nil
		}
		return th, &th.Ops[(arg/len(tr.Threads))%len(th.Ops)]
	}
	for len(muts) >= 2 {
		edit, arg := muts[0]%13, int(muts[1])
		muts = muts[2:]
		switch edit {
		case 0: // reorder two rf edges
			if n := len(tr.RF); n > 1 {
				i, j := arg%n, (arg/n+1)%n
				tr.RF[i], tr.RF[j] = tr.RF[j], tr.RF[i]
			}
		case 1: // drop a co order
			if n := len(tr.CO); n > 0 {
				i := arg % n
				tr.CO = append(tr.CO[:i:i], tr.CO[i+1:]...)
			}
		case 2: // unsort two co orders
			if n := len(tr.CO); n > 1 {
				i, j := arg%n, (arg/n+1)%n
				tr.CO[i], tr.CO[j] = tr.CO[j], tr.CO[i]
			}
		case 3: // swap two threads
			if n := len(tr.Threads); n > 1 {
				i, j := arg%n, (arg/n+1)%n
				tr.Threads[i], tr.Threads[j] = tr.Threads[j], tr.Threads[i]
			}
		case 4: // pin a key
			if _, op := ops(arg); op != nil {
				op.Keyed, op.Instr, op.Sub = true, int32(arg%7), int32(arg%3)
			}
		case 5: // a read or write becomes an RMW
			if _, op := ops(arg); op != nil && op.Kind != OpFence {
				op.Kind, op.Value2 = OpRMW, uint64(arg)
			}
		case 6: // a fence of any flavour, or none known
			if th, _ := ops(arg); th != nil {
				th.Ops = append(th.Ops, Op{Kind: OpFence, Fence: memmodel.FenceKind(arg % 4)})
			}
		case 7: // a read reads the initial write
			if n := len(tr.RF); n > 0 {
				tr.RF[arg%n].Init = true
			}
		case 8: // a read moves to an address nothing writes
			if _, op := ops(arg); op != nil && op.Kind == OpRead {
				op.Addr, op.Value = memsys.Addr(0x10000+8*arg), 0
			}
		case 9: // the last thread takes the largest TID
			if n := len(tr.Threads); n > 0 {
				remapTID(tr, tr.Threads[n-1].TID, math.MaxInt32)
			}
		case 10: // an address moves to the top of the address space
			if n := len(tr.CO); n > 0 {
				remapAddr(tr, tr.CO[n-1].Addr, math.MaxUint64-7-memsys.Addr(arg%2)*8)
			}
		case 11: // a value at the top of its range
			if _, op := ops(arg); op != nil {
				op.Value = math.MaxUint64
			}
		case 12: // two co orders trade their first writes
			if n := len(tr.CO); n > 1 {
				a, b := &tr.CO[arg%n], &tr.CO[(arg/n+1)%n]
				a.Writes[0], b.Writes[0] = b.Writes[0], a.Writes[0]
			}
		}
	}
}

// FuzzSignTrace: a random execution as a canonical trace, edited —
// rf edges reordered, co orders dropped, unsorted or trading writes,
// threads swapped, keys pinned, RMWs, fences, initial-write reads,
// read-only addresses, extreme TIDs, addresses and values — signs
// directly, if at all, as its execution signs when it has one. Unedited,
// it always signs directly.
func FuzzSignTrace(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{0, 3})
	f.Add(int64(3), []byte{1, 0, 2, 1})
	f.Add(int64(4), []byte{3, 1, 4, 9, 5, 2})
	f.Add(int64(5), []byte{6, 4, 7, 2, 8, 5})
	f.Add(int64(6), []byte{9, 0, 10, 1, 11, 3})
	f.Add(int64(7), []byte{8, 1, 8, 2, 10, 0, 9, 0})
	f.Fuzz(func(t *testing.T, seed int64, muts []byte) {
		tr, err := FromExecution("fuzz", randExec(rand.New(rand.NewSource(seed))))
		if err != nil {
			t.Fatal(err)
		}
		mutate(tr, muts)
		if !checkDirect(t, tr, executionOf(tr)) && len(muts) < 2 {
			t.Fatal("an unedited canonical trace fell back to materializing")
		}
	})
}
