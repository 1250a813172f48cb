package testgen

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/memsys"
)

func TestWriteIDRoundTrip(t *testing.T) {
	for tid := 0; tid < 8; tid++ {
		for instr := 0; instr < 100; instr += 7 {
			id := WriteIDFor(tid, instr)
			if id == 0 {
				t.Fatalf("WriteIDFor(%d,%d) = 0", tid, instr)
			}
			gt, gi, ok := DecodeWriteID(id)
			if !ok || gt != tid || gi != instr {
				t.Fatalf("DecodeWriteID(%#x) = (%d,%d,%v), want (%d,%d,true)", id, gt, gi, ok, tid, instr)
			}
		}
	}
	if _, _, ok := DecodeWriteID(0); ok {
		t.Error("DecodeWriteID(0) ok")
	}
}

func TestCompileBasic(t *testing.T) {
	tst := &Test{
		Threads: 2,
		Nodes: []Node{
			{PID: 0, Op: Op{Kind: OpWrite, Addr: 0x1000}},
			{PID: 1, Op: Op{Kind: OpRead, Addr: 0x1000}},
			{PID: 1, Op: Op{Kind: OpReadAddrDp, Addr: 0x1008}},
			{PID: 0, Op: Op{Kind: OpRMW, Addr: 0x1008}},
			{PID: 1, Op: Op{Kind: OpDelay, Delay: 4}},
		},
	}
	progs, err := Compile(tst)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(progs) != 2 || len(progs[0]) != 2 || len(progs[1]) != 3 {
		t.Fatalf("program shapes wrong: %d/%d", len(progs[0]), len(progs[1]))
	}
	if progs[0][0].WriteID == 0 || progs[0][1].WriteID == 0 {
		t.Error("write instructions lack IDs")
	}
	if progs[0][0].WriteID == progs[0][1].WriteID {
		t.Error("write IDs not unique")
	}
	// The ReadAddrDp depends on the preceding read (index 0 of T1).
	if progs[1][1].Kind != OpReadAddrDp || progs[1][1].DepLoad != 0 {
		t.Errorf("ReadAddrDp dep = %+v", progs[1][1])
	}
	if progs[1][2].Kind != OpDelay || progs[1][2].Delay != 4 {
		t.Errorf("delay instr wrong: %+v", progs[1][2])
	}
	// NodeIndex maps back to the flat list.
	if progs[0][1].NodeIndex != 3 {
		t.Errorf("NodeIndex = %d, want 3", progs[0][1].NodeIndex)
	}
}

func TestCompileDanglingAddrDpDegrades(t *testing.T) {
	tst := &Test{
		Threads: 1,
		Nodes:   []Node{{PID: 0, Op: Op{Kind: OpReadAddrDp, Addr: 0x1000}}},
	}
	progs, err := Compile(tst)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if progs[0][0].Kind != OpRead || progs[0][0].DepLoad != -1 {
		t.Errorf("dangling ReadAddrDp not degraded: %+v", progs[0][0])
	}
}

func TestCompileRejectsBadPID(t *testing.T) {
	tst := &Test{
		Threads: 1,
		Nodes:   []Node{{PID: 5, Op: Op{Kind: OpRead, Addr: 0x1000}}},
	}
	if _, err := Compile(tst); err == nil {
		t.Error("out-of-range pid accepted")
	}
	if _, err := Compile(&Test{}); err == nil {
		t.Error("zero-thread test accepted")
	}
}

func TestCompileRMWIsDependencySource(t *testing.T) {
	tst := &Test{
		Threads: 1,
		Nodes: []Node{
			{PID: 0, Op: Op{Kind: OpRMW, Addr: 0x1000}},
			{PID: 0, Op: Op{Kind: OpReadAddrDp, Addr: 0x1008}},
		},
	}
	progs, err := Compile(tst)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if progs[0][1].DepLoad != 0 {
		t.Errorf("RMW not usable as dependency source: %+v", progs[0][1])
	}
}

func TestCompileRandomTestsAlwaysValid(t *testing.T) {
	g, err := NewGenerator(Config{Size: 200, Threads: 8, Layout: memsys.MustLayout(8192, 16)},
		rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tst := g.NewTest()
		progs, err := Compile(tst)
		if err != nil {
			t.Fatalf("Compile random test: %v", err)
		}
		total := 0
		writeIDs := make(map[uint64]bool)
		for tid, p := range progs {
			total += len(p)
			for idx := range p {
				in := &p[idx]
				if in.Kind == OpWrite || in.Kind == OpRMW {
					if in.WriteID == 0 || writeIDs[in.WriteID] {
						t.Fatalf("write ID invalid or duplicated: %#x", in.WriteID)
					}
					writeIDs[in.WriteID] = true
					dt, di, ok := DecodeWriteID(in.WriteID)
					if !ok || dt != tid || di != idx {
						t.Fatalf("write ID decode mismatch")
					}
				}
				if in.Kind == OpReadAddrDp && (in.DepLoad < 0 || in.DepLoad >= idx) {
					t.Fatalf("bad DepLoad %d at %d", in.DepLoad, idx)
				}
			}
		}
		if total != tst.Size() {
			t.Fatalf("compiled size %d != test size %d", total, tst.Size())
		}
	}
}

// scanLinks is what the links stand for, found the way the core used to
// find it: by scanning back from instruction i.
func scanLinks(p Program, i int) (prevWord, fwd int, snoop memsys.Addr, snoops bool) {
	prevWord, fwd = -1, -1
	word := p[i].Addr.WordAddr()
	access := func(in *Instr) bool { return in.IsLoad() || in.Kind == OpWrite }
	if access(&p[i]) {
		for k := i - 1; k >= 0; k-- {
			if access(&p[k]) && p[k].Addr.WordAddr() == word {
				prevWord = k
				break
			}
		}
		for k := i - 1; k >= 0; k-- {
			if (p[k].Kind == OpWrite || p[k].Kind == OpRMW) && p[k].Addr.WordAddr() == word {
				fwd = k
				break
			}
		}
	}
	if p[i].Kind == OpRead || p[i].Kind == OpReadAddrDp {
		return prevWord, fwd, p[i].Addr.LineAddr(), true
	}
	return prevWord, fwd, 0, false
}

// checkLinks holds every instruction's links to scanLinks.
func checkLinks(t *testing.T, name string, p Program) {
	t.Helper()
	if !p.Linked() {
		t.Fatalf("%s: program not linked", name)
	}
	for i := range p {
		prev, fwd, line, ok := scanLinks(p, i)
		gotLine, gotOK := p.SnoopLine(i)
		if !gotOK {
			gotLine = 0
		}
		if p.PrevWord(i) != prev || p.Forward(i) != fwd || gotLine != line || gotOK != ok {
			t.Fatalf("%s: instruction %d (%v at %s): links (%d, %d, %s, %v), scan (%d, %d, %s, %v)",
				name, i, p[i].Kind, p[i].Addr, p.PrevWord(i), p.Forward(i), gotLine, gotOK, prev, fwd, line, ok)
		}
		load, barrier := len(p), len(p)
		for k := len(p) - 1; k >= i; k-- {
			if p[k].Kind == OpRead || p[k].Kind == OpReadAddrDp {
				load = k
			}
			if p[k].Kind == OpRMW || p[k].Kind == OpFence && p[k].Fence != FenceSS {
				barrier = k
			}
		}
		if p.NextLoad(i) != load || p.NextLoadBarrier(i) != barrier {
			t.Fatalf("%s: instruction %d: next load %d, barrier %d; scan %d, %d", name, i, p.NextLoad(i), p.NextLoadBarrier(i), load, barrier)
		}
	}
	if p.NextLoad(len(p)) != len(p) || p.NextLoadBarrier(len(p)) != len(p) {
		t.Fatalf("%s: past the end: next load %d, barrier %d, want %d", name, p.NextLoad(len(p)), p.NextLoadBarrier(len(p)), len(p))
	}
}

// TestLinksMatchScan: the links a Linker sets — previous same-word
// access, forwarding source, snoop line, next plain load, next load
// barrier — are what a scan of the program finds, on generated tests
// over three layouts (a small pool reuses words, a large one rarely
// does) linked one after another by one Linker, and on a hand-built
// program.
func TestLinksMatchScan(t *testing.T) {
	var l Linker
	for _, mem := range []int{64, 1024, 8192} {
		g, err := NewGenerator(Config{Size: 400, Threads: 4, Layout: memsys.MustLayout(mem, 16)}, rand.New(rand.NewSource(int64(mem))))
		if err != nil {
			t.Fatal(err)
		}
		var progs []Program
		for i := 0; i < 10; i++ {
			if progs, err = CompileInto(progs, g.NewTest()); err != nil {
				t.Fatal(err)
			}
			for tid, p := range progs {
				if len(p) > 0 && p.Linked() {
					t.Fatalf("%d B, test %d, thread %d: a fresh compile reads as linked", mem, i, tid)
				}
				l.Link(p)
				checkLinks(t, fmt.Sprintf("%d B, test %d, thread %d", mem, i, tid), p)
			}
		}
	}

	line := memsys.Addr(0x1000)
	hand := Program{
		{Kind: OpRead, Addr: line, DepLoad: -1},
		{Kind: OpFence, Fence: FenceFull, DepLoad: -1},
		{Kind: OpWrite, Addr: line + 8, WriteID: 1, DepLoad: -1},
		{Kind: OpCacheFlush, Addr: line + 8, DepLoad: -1},
		{Kind: OpReadAddrDp, Addr: line + 8, DepLoad: 0},
		{Kind: OpRMW, Addr: line, WriteID: 2, DepLoad: -1},
		{Kind: OpDelay, Delay: 3, DepLoad: -1},
		{Kind: OpRead, Addr: line, DepLoad: -1},
		{Kind: OpRead, Addr: line + 64, DepLoad: -1},
		{Kind: OpFence, Fence: FenceSS, DepLoad: -1},
		{Kind: OpFence, Fence: FenceLL, DepLoad: -1},
	}
	if hand.Linked() {
		t.Fatal("a hand-built program reads as linked")
	}
	l.Link(hand)
	checkLinks(t, "hand-built", hand)
	if hand.Forward(7) != 5 || hand.PrevWord(7) != 5 || hand.Forward(4) != 2 || hand.PrevWord(0) != -1 {
		t.Fatalf("hand-built links: forward(7)=%d prev(7)=%d forward(4)=%d prev(0)=%d", hand.Forward(7), hand.PrevWord(7), hand.Forward(4), hand.PrevWord(0))
	}
}
