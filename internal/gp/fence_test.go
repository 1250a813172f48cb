package gp

import (
	"math/rand"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/memsys"
	"repro/internal/testgen"
)

// fenceNodes collects the (slot, op) pairs holding fence genes.
func fenceNodes(t *testgen.Test) map[int]testgen.Op {
	out := map[int]testgen.Op{}
	for i, n := range t.Nodes {
		if n.Op.Kind == testgen.OpFence {
			out[i] = n.Op
		}
	}
	return out
}

// fencedTest builds a deterministic test with fences of every flavour
// at fixed slots.
func fencedTest() *testgen.Test {
	return &testgen.Test{
		Threads: 2,
		Nodes: []testgen.Node{
			{PID: 0, Op: testgen.Op{Kind: testgen.OpWrite, Addr: 0x100}},
			{PID: 0, Op: testgen.Op{Kind: testgen.OpFence, Fence: testgen.FenceSS}},
			{PID: 0, Op: testgen.Op{Kind: testgen.OpWrite, Addr: 0x140}},
			{PID: 1, Op: testgen.Op{Kind: testgen.OpRead, Addr: 0x140}},
			{PID: 1, Op: testgen.Op{Kind: testgen.OpFence, Fence: testgen.FenceLL}},
			{PID: 1, Op: testgen.Op{Kind: testgen.OpRead, Addr: 0x100}},
			{PID: 1, Op: testgen.Op{Kind: testgen.OpFence, Fence: testgen.FenceFull}},
			{PID: 1, Op: testgen.Op{Kind: testgen.OpRead, Addr: 0x180}},
		},
	}
}

// TestSelectiveCrossoverPreservesFences: with mutation off and
// unconditional selection on, Algorithm 1 inherits fence genes intact —
// slot position and flavour survive recombination.
func TestSelectiveCrossoverPreservesFences(t *testing.T) {
	e, _ := newEngine(t, PaperParams(), 3)
	e.ops.pMut = 0
	e.ops.pUSel = 1.0 // select everything from t1
	p := &Individual{Test: fencedTest(), FitAddrs: map[memsys.Addr]bool{}}
	child := new(testgen.Test)
	e.crossoverMutate(child, p, &Individual{Test: fencedTest(), FitAddrs: map[memsys.Addr]bool{}})
	want := fenceNodes(p.Test)
	got := fenceNodes(child)
	if len(got) != len(want) {
		t.Fatalf("crossover changed fence count: got %d, want %d", len(got), len(want))
	}
	for slot, op := range want {
		if got[slot] != op {
			t.Errorf("slot %d fence changed: %v -> %v", slot, op, got[slot])
		}
	}
}

// TestSinglePointCrossoverPreservesFences: the Std.XO baseline splices
// fence genes from both parents without corrupting them.
func TestSinglePointCrossoverPreservesFences(t *testing.T) {
	params := PaperParams()
	params.Crossover = SinglePointCrossover
	e, _ := newEngine(t, params, 5)
	e.ops.pMut = 0
	p1 := &Individual{Test: fencedTest(), FitAddrs: map[memsys.Addr]bool{}}
	p2 := &Individual{Test: fencedTest(), FitAddrs: map[memsys.Addr]bool{}}
	child := new(testgen.Test)
	e.singlePoint(child, p1, p2)
	// Both parents agree slot-wise, so the child must too.
	want := fenceNodes(p1.Test)
	got := fenceNodes(child)
	if len(got) != len(want) {
		t.Fatalf("single-point changed fence count: got %d, want %d", len(got), len(want))
	}
}

// TestMutationEmitsValidFences: a mutation-heavy engine over a
// fence-only bias produces only well-formed fence genes (flavour in
// range, no stray address).
func TestMutationEmitsValidFences(t *testing.T) {
	gen, err := testgen.NewGenerator(testgen.Config{
		Size: 64, Threads: 4, Layout: memsys.MustLayout(1024, 16),
		Bias: []testgen.Bias{{Kind: testgen.OpFence, Weight: 1}},
	}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	tst := gen.NewTest()
	if len(tst.Nodes) != 64 {
		t.Fatalf("size = %d", len(tst.Nodes))
	}
	for i, n := range tst.Nodes {
		if n.Op.Kind != testgen.OpFence {
			t.Fatalf("node %d not a fence: %v", i, n.Op)
		}
		if n.Op.Fence >= memmodel.NumFenceKinds {
			t.Fatalf("node %d fence flavour out of range: %v", i, n.Op.Fence)
		}
		if n.Op.Addr != 0 {
			t.Errorf("node %d fence carries an address: %v", i, n.Op)
		}
	}
	// All three flavours appear over 64 draws.
	seen := map[testgen.FenceKind]bool{}
	for _, n := range tst.Nodes {
		seen[n.Op.Fence] = true
	}
	if len(seen) != int(memmodel.NumFenceKinds) {
		t.Errorf("flavours drawn = %v, want all %d", seen, memmodel.NumFenceKinds)
	}
}

// TestFitaddrFractionIgnoresFences: fences and delays are not mem ops;
// only addressable operations enter the fraction's denominator.
func TestFitaddrFractionIgnoresFences(t *testing.T) {
	tst := &testgen.Test{
		Threads: 2,
		Nodes: []testgen.Node{
			{PID: 0, Op: testgen.Op{Kind: testgen.OpWrite, Addr: 0x100}},
			{PID: 0, Op: testgen.Op{Kind: testgen.OpFence, Fence: testgen.FenceFull}},
			{PID: 0, Op: testgen.Op{Kind: testgen.OpFence, Fence: testgen.FenceSS}},
			{PID: 1, Op: testgen.Op{Kind: testgen.OpDelay, Delay: 2}},
			{PID: 1, Op: testgen.Op{Kind: testgen.OpRead, Addr: 0x200}},
		},
	}
	fit := map[memsys.Addr]bool{0x100: true}
	if got := fitaddrFraction(tst, fit); got != 0.5 {
		t.Fatalf("fitaddrFraction = %v, want 0.5 (fences/delays excluded)", got)
	}
	// A test of only non-mem ops has no defined fraction: 0.
	allFences := &testgen.Test{Threads: 1, Nodes: []testgen.Node{
		{PID: 0, Op: testgen.Op{Kind: testgen.OpFence}},
	}}
	if got := fitaddrFraction(allFences, fit); got != 0 {
		t.Fatalf("fence-only fraction = %v, want 0", got)
	}
}

// TestNormalizeNDTEdgeCases: zero input with zero max, inputs above the
// running max, and the clamp at 1.
func TestNormalizeNDTEdgeCases(t *testing.T) {
	var n NormalizeNDT
	if got := n.Norm(0); got != 0 {
		t.Fatalf("Norm(0) = %v with zero max, want 0", got)
	}
	if got := n.Norm(0); got != 0 {
		t.Fatalf("repeated Norm(0) = %v, want 0 (max must stay 0)", got)
	}
	if got := n.Norm(5); got != 1 {
		t.Fatalf("Norm(5) = %v, want 1 (new max)", got)
	}
	if got := n.Norm(2.5); got != 0.5 {
		t.Fatalf("Norm(2.5) = %v, want 0.5", got)
	}
	if got := n.Norm(50); got != 1 {
		t.Fatalf("Norm(50) = %v, want 1 (clamped at new max)", got)
	}
	if got := n.Norm(5); got != 0.1 {
		t.Fatalf("Norm(5) = %v after max=50, want 0.1", got)
	}
}
