package oracle

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"repro/internal/trace"
)

// pinExtremeTrace carries the largest values the formats admit: TID and
// instruction index 2³¹−1, sparsely keyed instructions, the last word
// of the address space (the trace package's extremeTrace).
func pinExtremeTrace() *Trace {
	const top = math.MaxInt32
	return &Trace{
		Name: "extreme",
		Threads: []trace.Thread{
			{TID: top, Ops: []trace.Op{
				{Kind: trace.OpWrite, Addr: math.MaxUint64 - 7, Value: math.MaxUint64, Keyed: true, Instr: 1 << 20},
				{Kind: trace.OpRMW, Addr: math.MaxUint64 - 7, Value: math.MaxUint64, Value2: 1, Keyed: true, Instr: top},
			}},
			{TID: 3, Ops: []trace.Op{
				{Kind: trace.OpRead, Addr: math.MaxUint64 - 7, Value: 1, Keyed: true, Instr: top, Sub: top},
			}},
		},
		RF: []trace.RFEdge{
			{Read: trace.Ref{TID: top, Instr: top}, Write: trace.Ref{TID: top, Instr: 1 << 20}},
			{Read: trace.Ref{TID: 3, Instr: top, Sub: top}, Write: trace.Ref{TID: top, Instr: top, Sub: 1}},
		},
		CO: []trace.COOrder{{Addr: math.MaxUint64 - 7, Writes: []trace.Ref{{TID: top, Instr: 1 << 20}, {TID: top, Instr: top, Sub: 1}}}},
	}
}

// pinFuzzSeeds are FuzzTextDecoder's two hand-written seeds: between
// them they carry rf and co lines, "@i" pins, an "a" half, "u" and
// every fence.
var pinFuzzSeeds = []string{
	"mctrace 1\ntrace mp\nthread 1\nw 0x100 1\nw 0x140 1\nthread 2\nr 0x140 1\nr 0x100 0\nrf 2:0 1:1\nrf 2:1 init\nco 0x100 1:0\nco 0x140 1:1\nend\n",
	"mctrace 1\ntrace\nthread 0\nu 0x100 0 1\nf full\nf ss\nf ll\nw 0x100 2 a @7\nend\n",
}

// TestTextEncodingPinned: WriteTraces' bytes are fixed. Each input's
// canonical text encoding hashes to the SHA-256 it had when recorded, so
// a change to the encoder that moves a single byte of canonical output
// fails here even if it still round-trips through the decoder.
func TestTextEncodingPinned(t *testing.T) {
	corpus, err := LitmusCorpus()
	if err != nil {
		t.Fatal(err)
	}
	var litmus []*Trace
	for _, e := range corpus {
		litmus = append(litmus, e.Trace)
	}
	var seeds []*Trace
	for _, in := range pinFuzzSeeds {
		ts, err := DecodeTraces(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, ts...)
	}
	for _, c := range []struct {
		name   string
		traces []*Trace
		want   string
	}{
		{"litmus", litmus, "6fbb96d3d512f0c6688cf7ba593b4042b633928c561e481343891946116d284f"},
		{"generated", generatedTraces(t), "bbcba6f88444c6fe212207276ee945e735a3e33543e7a58c1879ee824f6885ca"},
		{"extreme", []*Trace{pinExtremeTrace()}, "a23f2900271aca50c5870b3af19fe8c5751ce616d482dbb4bbfbdabe8b4b9b79"},
		{"fuzz-seeds", seeds, "8ca805f3a6e0c30429175368e9f2638ae672bf1f6820a01f1bf4a1c148bc5b74"},
	} {
		var buf bytes.Buffer
		if err := WriteTraces(&buf, c.traces...); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: %d bytes hash to %s, want %s", c.name, buf.Len(), got, c.want)
		}
	}
}
