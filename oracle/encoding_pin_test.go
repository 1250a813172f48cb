package oracle

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
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
	checkEncodingPinned(t, WriteTraces, map[string]string{
		"litmus":     "6fbb96d3d512f0c6688cf7ba593b4042b633928c561e481343891946116d284f",
		"generated":  "bbcba6f88444c6fe212207276ee945e735a3e33543e7a58c1879ee824f6885ca",
		"extreme":    "a23f2900271aca50c5870b3af19fe8c5751ce616d482dbb4bbfbdabe8b4b9b79",
		"fuzz-seeds": "8ca805f3a6e0c30429175368e9f2638ae672bf1f6820a01f1bf4a1c148bc5b74",
	})
}

// TestBinaryEncodingPinned: WriteTracesBinary's bytes are fixed, over
// the same four sets as the text encoding's pins.
func TestBinaryEncodingPinned(t *testing.T) {
	checkEncodingPinned(t, WriteTracesBinary, map[string]string{
		"litmus":     "4e1b7f3ec271e8d5b867463373eb3dc16f3f6390b718285af991e121b226beea",
		"generated":  "dd6f82994b8328a00dd8e2236a6e20663d9211b4b979901da2432c452facefa1",
		"extreme":    "a778db8cdeb2981b11660dc6070ec345a1903ca6319643fb84efa71ea132d54d",
		"fuzz-seeds": "171f64c721bd66456cc7b4df440d5bb183ba0c90a9c38f466e3289a6d8993f6d",
	})
}

// checkEncodingPinned requires encode's output for each pinned set to
// hash to the SHA-256 want holds under the set's name.
func checkEncodingPinned(t *testing.T, encode func(io.Writer, ...*Trace) error, want map[string]string) {
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
	}{
		{"litmus", litmus},
		{"generated", generatedTraces(t)},
		{"extreme", []*Trace{pinExtremeTrace()}},
		{"fuzz-seeds", seeds},
	} {
		var buf bytes.Buffer
		if err := encode(&buf, c.traces...); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[c.name] {
			t.Errorf("%s: %d bytes hash to %s, want %s", c.name, buf.Len(), got, want[c.name])
		}
	}
}
