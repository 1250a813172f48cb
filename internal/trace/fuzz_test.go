package trace

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/collective"
)

// extremeTrace carries the largest values the formats admit: TID and
// instruction index 2³¹−1, sparsely keyed instructions, the last word
// of the address space.
func extremeTrace() *Trace {
	const top = math.MaxInt32
	return &Trace{
		Name: "extreme",
		Threads: []Thread{
			{TID: top, Ops: []Op{
				{Kind: OpWrite, Addr: math.MaxUint64 - 7, Value: math.MaxUint64, Keyed: true, Instr: 1 << 20},
				{Kind: OpRMW, Addr: math.MaxUint64 - 7, Value: math.MaxUint64, Value2: 1, Keyed: true, Instr: top},
			}},
			{TID: 3, Ops: []Op{
				{Kind: OpRead, Addr: math.MaxUint64 - 7, Value: 1, Keyed: true, Instr: top, Sub: top},
			}},
		},
		RF: []RFEdge{
			{Read: Ref{TID: top, Instr: top}, Write: Ref{TID: top, Instr: 1 << 20}},
			{Read: Ref{TID: 3, Instr: top, Sub: top}, Write: Ref{TID: top, Instr: top, Sub: 1}},
		},
		CO: []COOrder{{Addr: math.MaxUint64 - 7, Writes: []Ref{{TID: top, Instr: 1 << 20}, {TID: top, Instr: top, Sub: 1}}}},
	}
}

// residue is what a reused Materializer held before the trace under
// test: other threads, other addresses, more events, pins and an
// override — none of which may show afterwards.
var residue = &Trace{
	Name: "residue",
	Threads: []Thread{
		{TID: 9, Ops: []Op{{Kind: OpWrite, Addr: 0x100, Value: 5}, {Kind: OpWrite, Addr: 0x100, Value: 6}, {Kind: OpFence}}},
		{TID: 0, Ops: []Op{{Kind: OpRead, Addr: 0x100, Value: 6}, {Kind: OpRead, Addr: 0x900, Value: 0, Keyed: true, Instr: 70}}},
		{TID: 4, Ops: []Op{{Kind: OpRMW, Addr: 0x200, Value: 0, Value2: 7}}},
	},
	RF: []RFEdge{{Read: Ref{TID: 0, Instr: 70}, Init: true}},
	CO: []COOrder{{Addr: 0x100, Writes: []Ref{{TID: 9, Instr: 1}, {TID: 9}}}},
}

// materializeBothWays materializes tr fresh and into a Materializer that
// last held a different trace, and requires the two to be
// indistinguishable: the same events, the same signature, the same error
// text. Signing tr from its fields (checkDirect) must agree with both.
func materializeBothWays(t *testing.T, tr *Trace) {
	t.Helper()
	fresh, ferr := tr.Execution()
	var m Materializer
	if _, err := m.Execution(residue); err != nil {
		t.Fatalf("residue trace: %v", err)
	}
	reused, rerr := m.Execution(tr)
	if fmt.Sprint(ferr) != fmt.Sprint(rerr) {
		t.Fatalf("fresh materialization: %v\nreused: %v", ferr, rerr)
	}
	checkDirect(t, tr, fresh)
	if ferr != nil {
		return
	}
	if !slices.Equal(fresh.Events(), reused.Events()) {
		t.Fatalf("events differ:\n fresh  %v\n reused %v", fresh.Events(), reused.Events())
	}
	if f, r := collective.Signature(fresh), collective.Signature(reused); f != r {
		t.Fatalf("signature %s fresh, %s reused", f, r)
	}
}

// FuzzTextDecoder: arbitrary input must never panic the text decoder,
// and anything it accepts must re-encode and re-decode to the same
// traces (decode∘encode is the identity on the decoder's image up to
// canonicalization of a second pass), in text and in binary.
func FuzzTextDecoder(f *testing.F) {
	for _, in := range textDecoderSeeds(f) {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		traces, err := readAll(NewTextReader(bytes.NewReader([]byte(in))))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, traces...); err != nil {
			t.Fatalf("accepted traces failed to encode: %v", err)
		}
		again, err := DecodeAll(&buf)
		if err != nil {
			t.Fatalf("re-encoded stream failed to decode: %v\n%s", err, buf.String())
		}
		if len(traces) > 0 && !reflect.DeepEqual(traces, again) {
			t.Fatalf("decode(encode(decode(in))) != decode(in)\nin: %q", in)
		}
		// The binary format carries every trace the text decoder accepts.
		var bin bytes.Buffer
		if err := WriteBinary(&bin, traces...); err != nil {
			t.Fatalf("accepted traces failed to encode in binary: %v", err)
		}
		if fromBin, err := DecodeAll(&bin); err != nil || len(traces) > 0 && !reflect.DeepEqual(traces, fromBin) {
			t.Fatalf("text decode(binary encode(decode(in))) != decode(in) (%v)\nin: %q", err, in)
		}
		// Materialization may legitimately fail (structural errors), but
		// must not panic, and must not depend on what the storage held.
		for _, tr := range traces {
			materializeBothWays(t, tr)
		}
	})
}

// textDecoderSeeds are FuzzTextDecoder's seeds, in the order it adds
// them: well-formed streams, streams at the formats' ceilings, and
// streams the decoder must refuse.
func textDecoderSeeds(f *testing.F) []string {
	var extreme bytes.Buffer
	if err := WriteText(&extreme, extremeTrace()); err != nil {
		f.Fatal(err)
	}
	return []string{
		"mctrace 1\ntrace mp\nthread 1\nw 0x100 1\nw 0x140 1\nthread 2\nr 0x140 1\nr 0x100 0\nrf 2:0 1:1\nrf 2:1 init\nco 0x100 1:0\nco 0x140 1:1\nend\n",
		"mctrace 1\ntrace\nthread 0\nu 0x100 0 1\nf full\nf ss\nf ll\nw 0x100 2 a @7\nend\n",
		"mctrace 1\n# comment\n\ntrace x\nthread 3\nr 0x0 0\nend\ntrace y\nthread 0\nend\n",
		"mctrace 2\n",
		"mctrace 1\ntrace t\nthread 0\nw 99999999999999999999 1\nend\n",
		"",
		extreme.String(),
		"mctrace 1\ntrace sparse\nthread 2147483647\nw 0xfffffffffffffff8 1 @2147483647\nr 0xfffffffffffffff8 1 @5.2147483647\nthread 0\nf ll @99\nr 0xfffffffffffffff8 0 @7\nrf 0:7 init\nend\n",
		// Non-canonical spellings the decoder hands to strconv: octal, 0o,
		// 0b, upper-case hex, underscores, signs and leading zeros.
		"mctrace 1\ntrace spelled\nthread +07\nw 0o400 0b101 a @+3.00\nw 0X1_00 017 @4\nu 0x_100 1_000 0 @05\nr 0400 18446744073709551615\nrf 7:6 +7:04.1\nco 256 07:3.00 7:4 7:5.1\nend\n",
		"mctrace 1\ntrace bad\nthread 0\nw 0x 1\nw 0x1_ 18446744073709551616 @0.2147483648\nend\n",
	}
}

// FuzzTextNumbers: a token spelled as a thread id, an address, a value,
// a key pin's sub and an rf ref decodes to what strconv makes of it there,
// or fails with the error strconv's answer gives.
func FuzzTextNumbers(f *testing.F) {
	for _, tok := range numberSpellings {
		f.Add(tok)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		if fs := strings.Fields(tok); len(fs) != 1 || fs[0] != tok || strings.ContainsRune(tok, '#') {
			return // not one token of a line
		}
		checkNumberSpelling(t, tok)
	})
}

// FuzzBinaryDecoder: arbitrary bytes must never panic or over-allocate
// the binary decoder; whatever it accepts materializes — or fails to —
// the same way fresh and into reused storage, and survives binary →
// text → binary unchanged: the text format carries every trace the
// binary decoder accepts.
func FuzzBinaryDecoder(f *testing.F) {
	for _, tr := range []*Trace{binarySeedTrace(), extremeTrace(), residue} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("MCVB\x01"))
	f.Add([]byte("MCVB\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add([]byte{})
	// Frames the text format cannot carry, which the decoder must reject.
	for _, c := range unencodable {
		f.Add(appendBinaryTrace([]byte("MCVB\x01"), c.trace))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		traces, err := readAll(NewBinaryDecoder(bytes.NewReader(in)))
		if err != nil {
			return
		}
		for _, tr := range traces {
			materializeBothWays(t, tr)
		}
		if len(traces) == 0 {
			return
		}
		var text bytes.Buffer
		if err := WriteText(&text, traces...); err != nil {
			t.Fatalf("accepted traces failed to encode as text: %v", err)
		}
		fromText, err := DecodeAll(&text)
		if err != nil {
			t.Fatalf("their text failed to decode: %v\n%s", err, text.String())
		}
		if !reflect.DeepEqual(traces, fromText) {
			t.Fatalf("binary decode(text encode(decode(in))) != decode(in)\n%s", text.String())
		}
		var bin bytes.Buffer
		if err := WriteBinary(&bin, fromText...); err != nil {
			t.Fatalf("traces back from text failed to encode: %v", err)
		}
		again, err := DecodeAll(&bin)
		if err != nil {
			t.Fatalf("re-encoded stream failed to decode: %v", err)
		}
		if !reflect.DeepEqual(traces, again) {
			t.Fatal("binary decode(encode(decode(text(decode(in))))) != decode(in)")
		}
	})
}
