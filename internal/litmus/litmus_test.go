package litmus

import (
	"strings"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/memsys"
	"repro/internal/testgen"
)

// mustMaterialize rotates the cycle to external closure and materializes
// it, failing the test otherwise.
func mustMaterialize(t *testing.T, c Cycle) *Test {
	t.Helper()
	rot, ok := c.rotateToExternalClose()
	if !ok {
		t.Fatalf("cycle %v has no external edge", c)
	}
	tst, ok := materialize(rot)
	if !ok {
		t.Fatalf("cycle %v did not materialize", c)
	}
	return tst
}

func TestEdgeKindProperties(t *testing.T) {
	for e := EdgeKind(0); e < numEdgeKinds; e++ {
		if e.String() == "" {
			t.Errorf("edge %d has no name", e)
		}
	}
	if !Rfe.external() || !Fre.external() || !Wse.external() {
		t.Error("conflict edges not external")
	}
	if PodRR.external() || MFencedWR.external() {
		t.Error("po edges marked external")
	}
	// Endpoint kinds.
	if !Rfe.srcIsWrite() || Rfe.dstIsWrite() {
		t.Error("Rfe endpoints wrong")
	}
	if Fre.srcIsWrite() || !Fre.dstIsWrite() {
		t.Error("Fre endpoints wrong")
	}
	if !PodWR.srcIsWrite() || PodWR.dstIsWrite() {
		t.Error("PodWR endpoints wrong")
	}
}

func TestCanonicalRotationInvariant(t *testing.T) {
	a := Cycle{Rfe, PodRR, Fre, PodWW}
	b := Cycle{Fre, PodWW, Rfe, PodRR}
	if a.canonical() != b.canonical() {
		t.Error("rotations canonicalize differently")
	}
	c := Cycle{Rfe, PodRW, Fre, PodWW}
	if a.canonical() == c.canonical() {
		t.Error("different cycles share canonical form")
	}
}

func TestMaterializeMP(t *testing.T) {
	// MP: Wx=1; Wy=1 || Ry=1; Rx=0 — cycle Rfe PodRR Fre PodWW
	// starting from the write of y: Wy -Rfe-> Ry -PodRR-> Rx -Fre->
	// Wx -PodWW-> Wy.
	c := Cycle{Rfe, PodRR, Fre, PodWW}
	tst := mustMaterialize(t, c)
	if len(tst.Threads) != 2 {
		t.Fatalf("threads = %d, want 2", len(tst.Threads))
	}
	writes, reads := 0, 0
	for _, evs := range tst.Threads {
		for _, e := range evs {
			if e.IsWrite {
				writes++
			} else {
				reads++
			}
		}
	}
	if writes != 2 || reads != 2 {
		t.Fatalf("writes=%d reads=%d, want 2/2", writes, reads)
	}
}

func TestForbiddenMP(t *testing.T) {
	c := Cycle{Rfe, PodRR, Fre, PodWW}
	tst := mustMaterialize(t, c)
	if !Forbidden(tst, memmodel.TSO{}) {
		t.Error("MP outcome not forbidden under TSO")
	}
	if !Forbidden(tst, memmodel.SC{}) {
		t.Error("MP outcome not forbidden under SC")
	}
}

func TestSBAllowedUnderTSOForbiddenUnderSC(t *testing.T) {
	// SB: Fre PodWR Fre PodWR — the canonical W→R relaxation.
	c := Cycle{Fre, PodWR, Fre, PodWR}
	tst := mustMaterialize(t, c)
	if Forbidden(tst, memmodel.TSO{}) {
		t.Error("SB outcome forbidden under TSO (should be allowed)")
	}
	if !Forbidden(tst, memmodel.SC{}) {
		t.Error("SB outcome allowed under SC (should be forbidden)")
	}
}

func TestSBWithFencesForbiddenUnderTSO(t *testing.T) {
	c := Cycle{Fre, MFencedWR, Fre, MFencedWR}
	tst := mustMaterialize(t, c)
	if !Forbidden(tst, memmodel.TSO{}) {
		t.Error("fenced SB not forbidden under TSO")
	}
}

func TestGenerateTSOSuite(t *testing.T) {
	tests := Suite()
	if len(tests) != 38 {
		t.Fatalf("generated %d tests, want 38 (the diy x86-TSO count)", len(tests))
	}
	names := map[string]bool{}
	for _, tst := range tests {
		if tst.Name == "" {
			t.Error("unnamed test")
		}
		if names[tst.Name+tst.Cycle.String()] {
			t.Errorf("duplicate test %s", tst.Name)
		}
		names[tst.Name+tst.Cycle.String()] = true
		// Every generated test must be forbidden under TSO by
		// construction.
		if !Forbidden(tst, memmodel.TSO{}) {
			t.Errorf("generated test %s not forbidden", tst.Name)
		}
		if len(tst.Threads) < 2 {
			t.Errorf("test %s has %d threads", tst.Name, len(tst.Threads))
		}
	}
	// The classic shapes must be present.
	var all strings.Builder
	for _, tst := range tests {
		all.WriteString(tst.Name)
		all.WriteString("\n")
	}
	for _, want := range []string{"MP", "2+2W", "SB+mfences"} {
		if !strings.Contains(all.String(), want) {
			t.Errorf("suite missing %s\nsuite:\n%s", want, all.String())
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(memmodel.TSO{}, 5, 20)
	b := Generate(memmodel.TSO{}, 5, 20)
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if a[i].Cycle.String() != b[i].Cycle.String() {
			t.Fatal("nondeterministic order")
		}
	}
}

func TestToTestgenLowering(t *testing.T) {
	c := Cycle{Rfe, PodRR, Fre, PodWW}
	tst := mustMaterialize(t, c)
	if !Forbidden(tst, memmodel.TSO{}) {
		t.Fatal("MP not forbidden")
	}
	low, err := ToTestgen(tst, 8)
	if err != nil {
		t.Fatal(err)
	}
	if low.Test.Threads != 8 {
		t.Errorf("Threads = %d, want 8", low.Test.Threads)
	}
	// The layout is the test's variable lines, so the host's
	// reset_test_mem zeroes exactly those.
	lines := low.Test.Layout.Lines()
	if len(lines) != tst.NumVars {
		t.Fatalf("layout covers %d lines, want %d", len(lines), tst.NumVars)
	}
	for v, line := range lines {
		if line != VarAddr(v) {
			t.Errorf("layout line %d = %#x, want VarAddr(%d) = %#x", v, line, v, VarAddr(v))
		}
	}
	if len(low.Probes) != 2 {
		t.Fatalf("probes = %d, want 2", len(low.Probes))
	}
	// One probe expects the flag write, the other the initial value;
	// the flag write's ID is the one CompileInto gives it.
	progs, err := testgen.Compile(low.Test)
	if err != nil {
		t.Fatal(err)
	}
	var init, writer int
	for _, p := range low.Probes {
		switch {
		case p.ExpectValue == 0:
			init++
		case isWriteID(progs, p.ExpectValue):
			writer++
		}
	}
	if init != 1 || writer != 1 {
		t.Fatalf("probe expectations init=%d writer=%d, want 1/1", init, writer)
	}
	for v, want := range low.Final {
		if !isWriteID(progs, want) {
			t.Errorf("final value of location %d is %#x, no compiled write's ID", v, want)
		}
	}
	// Too many threads must be rejected.
	if _, err := ToTestgen(tst, 1); err == nil {
		t.Error("1-thread lowering accepted")
	}
	// So must more locations than one partition holds: past it, VarAddr
	// and the layout's translation part ways.
	wide := *tst
	wide.NumVars = memsys.PartitionSize/memsys.LineSize + 1
	if _, err := ToTestgen(&wide, 8); err == nil {
		t.Error("lowering across a partition boundary accepted")
	}
}

// isWriteID reports whether id is the write ID of a compiled write.
func isWriteID(progs []testgen.Program, id uint64) bool {
	for _, p := range progs {
		for _, in := range p {
			if in.Kind == testgen.OpWrite && in.WriteID == id {
				return true
			}
		}
	}
	return false
}

func TestFencedLoweringEmitsFences(t *testing.T) {
	c := Cycle{Fre, MFencedWR, Fre, MFencedWR}
	tst := mustMaterialize(t, c)
	Forbidden(tst, memmodel.TSO{}) // resolve expectations
	low, err := ToTestgen(tst, 4)
	if err != nil {
		t.Fatal(err)
	}
	fences := 0
	for _, n := range low.Test.Nodes {
		if n.Op.Kind == testgen.OpFence {
			fences++
			if n.Op.Fence != memmodel.FenceFull {
				t.Errorf("mfence lowered as %s fence", n.Op.Fence)
			}
		}
	}
	if fences != 2 {
		t.Fatalf("fenced SB lowered with %d fences, want 2", fences)
	}
}

// TestFencedLoweringCarriesFlavour: SS and LL fence edges lower to
// fences of the matching flavour.
func TestFencedLoweringCarriesFlavour(t *testing.T) {
	c := Cycle{Rfe, LLFencedRR, Fre, SSFencedWW}
	tst := mustMaterialize(t, c)
	Forbidden(tst, memmodel.RMO{}) // resolve expectations
	low, err := ToTestgen(tst, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := map[memmodel.FenceKind]int{}
	for _, n := range low.Test.Nodes {
		if n.Op.Kind == testgen.OpFence {
			got[n.Op.Fence]++
		}
	}
	if got[memmodel.FenceSS] != 1 || got[memmodel.FenceLL] != 1 {
		t.Fatalf("MP+fences lowered with fence flavours %v, want one ss and one ll", got)
	}
}

func TestTestString(t *testing.T) {
	c := Cycle{Rfe, PodRR, Fre, PodWW}
	tst := mustMaterialize(t, c)
	Forbidden(tst, memmodel.TSO{}) // resolve expectations
	s := tst.String()
	if s == "" || !strings.Contains(s, "P0") {
		t.Errorf("String = %q", s)
	}
}

// TestStringDeterministic pins the final-condition rendering order:
// FinalWrites is a map, and before the keys were sorted the forbidden
// clause came out in whatever order the runtime walked it, so the same
// test printed differently run to run.
func TestStringDeterministic(t *testing.T) {
	tst := &Test{
		Name:        "pin",
		Threads:     [][]Event{{{IsWrite: true, Var: 0, Val: 1}}},
		FinalWrites: map[int]uint64{0: 1, 1: 2, 2: 3},
		NumVars:     3,
	}
	first := tst.String()
	want := "∧ x=1 ∧ y=2 ∧ z=3"
	if !strings.Contains(first, want) {
		t.Fatalf("final condition not in sorted key order:\n%s", first)
	}
	for i := 0; i < 64; i++ {
		if s := tst.String(); s != first {
			t.Fatalf("String unstable across calls:\n%s\nvs\n%s", first, s)
		}
	}
}
