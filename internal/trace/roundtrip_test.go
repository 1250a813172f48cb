package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/memmodel"
	"repro/internal/memsys"
	"repro/internal/relation"
)

// randExec builds a random SC-consistent execution by simulating one
// interleaving (same scheme as the fastpath differential fuzzer):
// threads step in random order against a flat memory, writes serialize
// into co in execution order, reads take the current value. Fences and
// atomic RMW pairs are sprinkled in.
func randExec(rng *rand.Rand) *memmodel.Execution {
	x := memmodel.NewExecution()
	nThreads := 2 + rng.Intn(3)
	nAddrs := 2 + rng.Intn(2)
	addrs := make([]memsys.Addr, nAddrs)
	for i := range addrs {
		addrs[i] = memsys.Addr(0x100 + 8*i)
	}
	mem := make(map[memsys.Addr]relation.EventID)
	nextVal := uint64(1)
	instr := make([]int, nThreads)
	steps := nThreads * (4 + rng.Intn(7))
	for s := 0; s < steps; s++ {
		tid := rng.Intn(nThreads)
		in := instr[tid]
		instr[tid]++
		addr := addrs[rng.Intn(nAddrs)]
		switch r := rng.Intn(10); {
		case r < 4:
			src, ok := mem[addr]
			if !ok {
				src = x.InitWrite(addr)
				mem[addr] = src
			}
			id := x.AddEvent(memmodel.Event{
				Key: memmodel.Key{TID: tid, Instr: in}, Kind: memmodel.KindRead,
				Addr: addr, Value: x.Event(src).Value,
			})
			if err := x.SetRF(id, src); err != nil {
				panic(err)
			}
		case r < 8:
			id := x.AddEvent(memmodel.Event{
				Key: memmodel.Key{TID: tid, Instr: in}, Kind: memmodel.KindWrite,
				Addr: addr, Value: nextVal,
			})
			nextVal++
			if err := x.AppendCO(id); err != nil {
				panic(err)
			}
			mem[addr] = id
		case r < 9:
			src, ok := mem[addr]
			if !ok {
				src = x.InitWrite(addr)
				mem[addr] = src
			}
			rid := x.AddEvent(memmodel.Event{
				Key: memmodel.Key{TID: tid, Instr: in}, Kind: memmodel.KindRead,
				Addr: addr, Value: x.Event(src).Value, Atomic: true,
			})
			if err := x.SetRF(rid, src); err != nil {
				panic(err)
			}
			wid := x.AddEvent(memmodel.Event{
				Key: memmodel.Key{TID: tid, Instr: in, Sub: 1}, Kind: memmodel.KindWrite,
				Addr: addr, Value: nextVal, Atomic: true,
			})
			nextVal++
			if err := x.AppendCO(wid); err != nil {
				panic(err)
			}
			mem[addr] = wid
		default:
			x.AddEvent(memmodel.Event{
				Key: memmodel.Key{TID: tid, Instr: in}, Kind: memmodel.KindFence,
				Fence: memmodel.FenceKind(rng.Intn(int(memmodel.NumFenceKinds))),
			})
		}
	}
	return x
}

var allModels = []memmodel.Arch{memmodel.SC{}, memmodel.TSO{}, memmodel.PSO{}, memmodel.RMO{}}

// TestRoundTripProperty: encode→decode through both codecs preserves
// the trace exactly, the collective signature exactly, and every
// model's verdict; decoding twice yields byte-identical executions;
// canonical traces re-encode byte-identically.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7ace))
	for i := 0; i < 200; i++ {
		x := randExec(rng)
		tr, err := FromExecution("t", x)
		if err != nil {
			t.Fatalf("iter %d: FromExecution: %v", i, err)
		}

		var text bytes.Buffer
		if err := WriteText(&text, tr); err != nil {
			t.Fatalf("iter %d: WriteText: %v", i, err)
		}
		textTraces, err := DecodeAll(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatalf("iter %d: text decode: %v\n%s", i, err, text.String())
		}
		if len(textTraces) != 1 || !reflect.DeepEqual(textTraces[0], tr) {
			t.Fatalf("iter %d: text round trip changed the trace:\n got %+v\nwant %+v", i, textTraces[0], tr)
		}

		var bin bytes.Buffer
		if err := WriteBinary(&bin, tr); err != nil {
			t.Fatalf("iter %d: WriteBinary: %v", i, err)
		}
		binTraces, err := DecodeAll(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatalf("iter %d: binary decode: %v", i, err)
		}
		if len(binTraces) != 1 || !reflect.DeepEqual(binTraces[0], tr) {
			t.Fatalf("iter %d: binary round trip changed the trace:\n got %+v\nwant %+v", i, binTraces[0], tr)
		}

		// Canonical re-encode is byte-identical.
		var text2 bytes.Buffer
		if err := WriteText(&text2, textTraces[0]); err != nil {
			t.Fatalf("iter %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(text.Bytes(), text2.Bytes()) {
			t.Fatalf("iter %d: text re-encode not byte-identical:\n%s\nvs\n%s", i, text.String(), text2.String())
		}

		// Decoding is deterministic: two materializations are
		// byte-identical executions.
		x1, err := textTraces[0].Execution()
		if err != nil {
			t.Fatalf("iter %d: Execution: %v\n%s", i, err, text.String())
		}
		x2, err := binTraces[0].Execution()
		if err != nil {
			t.Fatalf("iter %d: Execution (binary): %v", i, err)
		}
		if !reflect.DeepEqual(x1, x2) {
			t.Fatalf("iter %d: decoded executions differ", i)
		}

		// Signature and verdicts survive the round trip.
		if got, want := collective.Signature(x1), collective.Signature(x); got != want {
			t.Fatalf("iter %d: signature changed across round trip: %s != %s\n%s", i, got, want, text.String())
		}
		for _, arch := range allModels {
			want := memmodel.NewChecker().Check(x, arch)
			got := memmodel.NewChecker().Check(x1, arch)
			if got.Valid != want.Valid || got.Kind != want.Kind {
				t.Fatalf("iter %d: %s verdict changed: (%v,%v) != (%v,%v)",
					i, arch.Name(), got.Valid, got.Kind, want.Valid, want.Kind)
			}
		}
	}
}

// TestRoundTripInvalidExecution: a forbidden MP outcome keeps its
// violation (and witness, via deterministic decode) across the round
// trip.
func TestRoundTripInvalidExecution(t *testing.T) {
	b := memmodel.NewBuilder()
	b.Write(1, 0x100, 1)
	b.Write(1, 0x140, 1)
	ry := b.Read(2, 0x140, 1)
	rx := b.Read(2, 0x100, 0)
	_, _ = ry, rx
	x := b.MustBuild()
	if memmodel.NewChecker().Check(x, memmodel.TSO{}).Valid {
		t.Fatal("forbidden MP outcome accepted directly")
	}

	tr, err := FromExecution("mp", x)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := back[0].Execution()
	if err != nil {
		t.Fatal(err)
	}
	want := memmodel.NewChecker().Check(x, memmodel.TSO{})
	got := memmodel.NewChecker().Check(x2, memmodel.TSO{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("verdict changed across round trip:\n got %+v\nwant %+v", got, want)
	}
}

// TestFromExecutionRefusesWideKeys: an execution whose key has a field
// past the formats' int fields does not become a trace whose Ref would
// wrap it; the error names the event.
func TestFromExecutionRefusesWideKeys(t *testing.T) {
	for _, k := range []memmodel.Key{
		{TID: 0, Instr: 1 << 31},
		{TID: 0, Instr: 2, Sub: 1 << 31},
		{TID: 1 << 31, Instr: 0},
	} {
		b := memmodel.NewBuilder()
		b.WriteKeyed(k, 0x100, 1, false)
		if _, err := FromExecution("wide", b.MustBuild()); err == nil || !strings.Contains(err.Error(), k.String()) {
			t.Errorf("key %v: FromExecution error %v, want one naming the event", k, err)
		}
	}
}

// TestMultiTraceStream: several traces share one stream in both
// encodings.
func TestMultiTraceStream(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var traces []*Trace
	for i := 0; i < 5; i++ {
		tr, err := FromExecution("", randExec(rng))
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	var text, bin bytes.Buffer
	if err := WriteText(&text, traces...); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, traces...); err != nil {
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
	if !reflect.DeepEqual(fromText, traces) || !reflect.DeepEqual(fromBin, traces) {
		t.Fatal("multi-trace stream did not round trip")
	}
}

// TestTextBoundaryValuesSurviveBinary: the largest thread id, key pin,
// event ref and name the text decoder accepts re-encode to binary,
// decode again and come back as the same text — the two formats carry
// the same traces right up to their shared ceilings.
func TestTextBoundaryValuesSurviveBinary(t *testing.T) {
	const top = maxIntField - 1
	in := fmt.Sprintf("mctrace 1\ntrace %s\nthread %d\nw 0x100 1 @%d.%d\nr 0x100 1 @0.%d\nrf %d:0.%d %d:%d.%d\nco 0x100 %d:%d.%d\nend\n",
		strings.Repeat("n", maxNameLen), top, top, top, top, top, top, top, top, top, top, top, top)
	fromText, err := DecodeAll(strings.NewReader(in))
	if err != nil {
		t.Fatalf("boundary values rejected by the text decoder: %v", err)
	}
	var bin bytes.Buffer
	if err := WriteBinary(&bin, fromText...); err != nil {
		t.Fatal(err)
	}
	fromBin, err := DecodeAll(&bin)
	if err != nil {
		t.Fatalf("text-accepted trace rejected by the binary decoder: %v", err)
	}
	if !reflect.DeepEqual(fromBin, fromText) {
		t.Fatalf("trace changed across text -> binary:\n got %+v\nwant %+v", fromBin, fromText)
	}
	var text bytes.Buffer
	if err := WriteText(&text, fromBin...); err != nil {
		t.Fatal(err)
	}
	if text.String() != in {
		t.Fatalf("text -> binary -> text is not the identity:\n got %q\nwant %q", text.String(), in)
	}
}
