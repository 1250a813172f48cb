package trace

import (
	"io"
	"testing"
	"unsafe"
)

// TestTraceElementSizes pins the size of the elements a decoded trace is
// made of (the package builds for 64-bit hosts only): key fields are
// int32 and an Op's four one-byte fields share a word, so an Op is 40
// bytes, an RFEdge 28 and a Ref 12 (with int key fields they were 56, 56
// and 24).
func TestTraceElementSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Op", unsafe.Sizeof(Op{}), 40},
		{"RFEdge", unsafe.Sizeof(RFEdge{}), 28},
		{"Ref", unsafe.Sizeof(Ref{}), 12},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// decodeBytesPerOp is TestDecodeBytesPerOp's budget: the 76.8 bytes per
// op both decoders allocate for benchTrace, plus about 10 %. With int key
// fields and an unpacked Op they allocated 117.1.
const decodeBytesPerOp = 85

// TestDecodeBytesPerOp: a decoder that has decoded one canonical trace of
// 1 000 ops decodes the next allocating at most decodeBytesPerOp bytes
// per op, in either format.
func TestDecodeBytesPerOp(t *testing.T) {
	for _, c := range []struct {
		format  string
		encode  func(io.Writer, ...*Trace) error
		decoder func(io.Reader) func() (*Trace, error)
	}{
		{"text", WriteText, func(r io.Reader) func() (*Trace, error) { return NewDecoder(r).Next }},
		{"binary", WriteBinary, func(r io.Reader) func() (*Trace, error) { return NewBinaryDecoder(r).Next }},
	} {
		_, allocated, got := decodeCost(t, c.encode, c.decoder)
		ops := 0
		for _, th := range got.Threads {
			ops += len(th.Ops)
		}
		perOp := allocated / float64(ops)
		t.Logf("%s: %.1f bytes per op over %d ops", c.format, perOp, ops)
		if perOp > decodeBytesPerOp {
			t.Errorf("%s: decoding allocates %.1f bytes per op, want at most %d", c.format, perOp, decodeBytesPerOp)
		}
	}
}
