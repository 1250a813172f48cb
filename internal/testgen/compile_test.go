package testgen

import (
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
