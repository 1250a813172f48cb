package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"

	"repro/internal/memmodel"
)

// TestBinaryDecodeAllocationBudget is TestDecodeAllocatesOnlyTheTrace's
// binary twin: a decoder that has held one trace decodes the next one
// allocating no more than 1.25 times the bytes the trace holds, and no
// more objects than the text decoder allocates for the same trace, plus
// two.
func TestBinaryDecodeAllocationBudget(t *testing.T) {
	textObjects, _, _ := decodeCost(t, WriteText, func(r io.Reader) func() (*Trace, error) { return NewDecoder(r).Next })
	objects, allocated, got := decodeCost(t, WriteBinary, func(r io.Reader) func() (*Trace, error) { return NewBinaryDecoder(r).Next })
	own := heldBytes(got)
	t.Logf("%.1f objects (text: %.1f), %.0f bytes per trace; the trace holds %d bytes", objects, textObjects, allocated, own)
	if limit := textObjects + 2; objects > limit {
		t.Errorf("decoding a trace allocates %.1f objects, want at most %.0f (the text decoder's %.1f, plus 2)", objects, limit, textObjects)
	}
	if limit := 1.25 * float64(own); allocated > limit {
		t.Errorf("decoding a trace allocates %.0f bytes, want at most %.0f (1.25 x the %d it holds)", allocated, limit, own)
	}
}

// binaryStream is the binary encoding of traces, and the offsets where
// each frame ends: a stream cut at one of those, or at the end of the
// header, is a whole stream of fewer traces.
func binaryStream(t *testing.T, traces ...*Trace) (stream []byte, ends []int) {
	t.Helper()
	stream = binary.AppendUvarint([]byte(BinaryMagic), FormatVersion)
	ends = []int{len(stream)}
	for _, tr := range traces {
		if err := tr.encodable(); err != nil {
			t.Fatal(err)
		}
		stream = appendBinaryTrace(stream, tr)
		ends = append(ends, len(stream))
	}
	return stream, ends
}

var binaryErrAt = regexp.MustCompile(`^trace: binary: trace (\d+), byte (\d+): `)

// errorPosition parses the trace index and byte offset a binary
// decoder's error names.
func errorPosition(t *testing.T, err error) (trace, offset int) {
	t.Helper()
	m := binaryErrAt.FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("error %q names no position", err)
	}
	trace, _ = strconv.Atoi(m[1])
	offset, _ = strconv.Atoi(m[2])
	return trace, offset
}

// TestBinaryCutAtEveryOffset: a three-trace stream cut at any byte
// decodes to exactly the traces that lie wholly before the cut. A cut
// between frames ends the stream cleanly; any other cut fails once, with
// io.ErrUnexpectedEOF, naming the trace it cut and an offset within it
// no later than the cut.
func TestBinaryCutAtEveryOffset(t *testing.T) {
	all := []*Trace{extremeTrace(), residue, binarySeedTrace()}
	stream, ends := binaryStream(t, all...)
	for cut := 0; cut <= len(stream); cut++ {
		traces, err := DecodeAllBinary(bytes.NewReader(stream[:cut]))
		whole := 0
		for whole < len(all) && ends[whole+1] <= cut {
			whole++
		}
		if whole == 0 && traces == nil {
			traces = []*Trace{}
		}
		if !reflect.DeepEqual(traces, all[:whole]) {
			t.Fatalf("cut at %d: decoded %d traces, want the %d before it", cut, len(traces), whole)
		}
		if cut == 0 || cut == ends[whole] {
			if err != nil {
				t.Fatalf("cut at %d, between frames: %v", cut, err)
			}
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: %v, want unexpected EOF", cut, err)
		}
		index, offset := errorPosition(t, err)
		start := ends[whole]
		if cut < ends[0] {
			start = 0
		}
		if index != whole+1 || offset < start || offset > cut {
			t.Fatalf("cut at %d: %v, want trace %d at a byte in [%d, %d]", cut, err, whole+1, start, cut)
		}
	}
}

// TestBinaryWindowRefills: the decoder reads the same traces whatever
// size of pieces its reader hands it the stream in, and a read error is
// reported where it cut the stream, wrapped.
func TestBinaryWindowRefills(t *testing.T) {
	all := []*Trace{extremeTrace(), residue, binarySeedTrace(), benchTrace(t)}
	stream, _ := binaryStream(t, all...)
	for name, r := range map[string]io.Reader{
		"one byte":  iotest.OneByteReader(bytes.NewReader(stream)),
		"half":      iotest.HalfReader(bytes.NewReader(stream)),
		"data+EOF":  iotest.DataErrReader(bytes.NewReader(stream)),
		"one piece": bytes.NewReader(stream),
	} {
		got, err := DecodeAllBinary(r)
		if err != nil || !reflect.DeepEqual(got, all) {
			t.Errorf("%s: decoded %d traces (%v), want the %d encoded", name, len(got), err, len(all))
		}
	}
	cut := len(stream) - 100
	failing := io.MultiReader(bytes.NewReader(stream[:cut]), iotest.ErrReader(iotest.ErrTimeout))
	got, err := DecodeAllBinary(failing)
	if !errors.Is(err, iotest.ErrTimeout) || len(got) != len(all)-1 {
		t.Fatalf("read error after byte %d: %d traces, %v", cut, len(got), err)
	}
	if index, offset := errorPosition(t, err); index != len(all) || offset > cut {
		t.Fatalf("read error after byte %d reported as %v", cut, err)
	}
}

// TestBinaryLyingCountsAllocateLittle: a count of 2²⁴ followed by the
// end of the stream allocates at most maxPresize elements of its list
// beyond what the same stream with a count of 1 allocates.
func TestBinaryLyingCountsAllocateLittle(t *testing.T) {
	const lie = maxCount
	for _, c := range []struct {
		list    string
		prefix  []uint64 // the frame's uvarints before the count
		element uintptr
	}{
		{"threads", []uint64{0}, unsafe.Sizeof(Thread{})},
		{"ops", []uint64{0, 1, 0}, unsafe.Sizeof(Op{})},
		{"rf edges", []uint64{0, 0}, unsafe.Sizeof(RFEdge{})},
		{"co orders", []uint64{0, 0, 0}, unsafe.Sizeof(COOrder{})},
		{"co writes", []uint64{0, 0, 0, 1, 0x100}, unsafe.Sizeof(Ref{})},
	} {
		stream := func(count uint64) []byte {
			b := binary.AppendUvarint([]byte(BinaryMagic), FormatVersion)
			for _, v := range append(c.prefix, count) {
				b = binary.AppendUvarint(b, v)
			}
			return b
		}
		lying, honest := allocatedDecoding(t, stream(lie)), allocatedDecoding(t, stream(1))
		if limit := maxPresize*c.element + 512; lying > honest+limit {
			t.Errorf("%s: a count of %d then EOF allocates %d bytes, %d more than a count of 1; want at most %d more",
				c.list, lie, lying, lying-honest, limit)
		}
	}
}

// allocatedDecoding is the bytes DecodeAllBinary allocates on stream,
// which must fail.
func allocatedDecoding(t *testing.T, stream []byte) uintptr {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeAllBinary(bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("stream %x decoded", stream)
	}
	return uintptr(after.TotalAlloc - before.TotalAlloc)
}

// binarySeedTrace is FuzzBinaryDecoder's first seed: a write, an RMW, a
// fence and a keyed read on one thread.
func binarySeedTrace() *Trace {
	return &Trace{
		Name: "seed",
		Threads: []Thread{
			{TID: 0, Ops: []Op{
				{Kind: OpWrite, Addr: 0x100, Value: 1},
				{Kind: OpRMW, Addr: 0x100, Value: 1, Value2: 2},
				{Kind: OpFence},
				{Kind: OpRead, Addr: 0x100, Value: 2, Keyed: true, Instr: 9},
			}},
		},
		RF: []RFEdge{{Read: Ref{TID: 0, Instr: 9}, Write: Ref{TID: 0, Instr: 1, Sub: 1}}},
		CO: []COOrder{{Addr: 0x100, Writes: []Ref{{TID: 0}, {TID: 0, Instr: 1, Sub: 1}}}},
	}
}

// unencodable are traces one of the formats cannot carry, each named
// for what it holds. Until both encoders refused them, the binary
// format carried every one and the text format lost or garbled it.
var unencodable = []struct {
	name  string
	trace *Trace
}{
	{"atomic fence", oneOp(Op{Kind: OpFence, Atomic: true})},
	{"atomic rmw", oneOp(Op{Kind: OpRMW, Addr: 0x100, Value2: 1, Atomic: true})},
	{"rmw pinned to a sub", oneOp(Op{Kind: OpRMW, Addr: 0x100, Value2: 1, Keyed: true, Instr: 3, Sub: 5})},
	{"fence kind 3", oneOp(Op{Kind: OpFence, Fence: memmodel.NumFenceKinds})},
	{"fence kind 9", oneOp(Op{Kind: OpFence, Fence: 9})},
	{"fence kind 127", oneOp(Op{Kind: OpFence, Fence: 127})},
	{"name with white space", &Trace{Name: "trace with space"}},
	{"name with a no-break space", &Trace{Name: "no\u00a0break"}},
	{"name with a comment", &Trace{Name: "a#b"}},
	{"co order without writes", &Trace{Name: "co", CO: []COOrder{{Addr: 0x100}}}},
	{"negative tid", &Trace{Name: "tid", Threads: []Thread{{TID: -1}}}},
	{"ref past the int fields", &Trace{Name: "ref", RF: []RFEdge{{Read: Ref{Instr: maxIntField}, Init: true}}}},
}

func oneOp(op Op) *Trace {
	return &Trace{Name: "op", Threads: []Thread{{TID: 0, Ops: []Op{op}}}}
}

// TestCodecsCarryTheSameTraces: both encoders refuse a trace the formats
// cannot carry, with an error that names it, and the binary decoder
// rejects its frame with a positioned error — so no trace one decoder
// accepts is lost or garbled by the other format.
func TestCodecsCarryTheSameTraces(t *testing.T) {
	for _, c := range unencodable {
		for format, encode := range map[string]func(io.Writer, ...*Trace) error{"text": WriteText, "binary": WriteBinary} {
			err := encode(io.Discard, c.trace)
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(c.trace.Name)) {
				t.Errorf("%s: %s encoder: %v, want a refusal naming %q", c.name, format, err, c.trace.Name)
			}
		}
		frame := appendBinaryTrace(binary.AppendUvarint([]byte(BinaryMagic), FormatVersion), c.trace)
		traces, err := DecodeAllBinary(bytes.NewReader(frame))
		if err == nil {
			t.Errorf("%s: the binary decoder accepted %+v", c.name, traces[0])
			continue
		}
		if index, _ := errorPosition(t, err); index != 1 {
			t.Errorf("%s: %v names trace %d, want 1", c.name, err, index)
		}
	}
}

// TestUvarint8MatchesBinaryUvarint: the word-at-a-time decoder reads
// every uvarint of up to eight bytes — minimal or padded with 0x80
// groups, followed by any bytes — as binary.Uvarint does, and declines
// every longer one.
func TestUvarint8MatchesBinaryUvarint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(b []byte) {
		t.Helper()
		v, n := uvarint8(b)
		wv, wn := binary.Uvarint(b)
		if wn > 8 || wn <= 0 {
			wv, wn = 0, 0
		}
		if v != wv || n != wn {
			t.Fatalf("uvarint8(% x) = %d, %d; binary.Uvarint reads %d, %d", b, v, n, wv, wn)
		}
	}
	for i := 0; i < 100000; i++ {
		var b [12]byte
		rng.Read(b[:])
		// Clear a top bit at a random place, so every length shows up.
		b[rng.Intn(len(b))] &= 0x7f
		check(b[:])
		v := rng.Uint64() >> rng.Intn(64)
		enc := binary.AppendUvarint(nil, v)
		check(append(enc, b[:]...))
		if len(enc) < 8 { // the same value padded with an empty group
			enc[len(enc)-1] |= 0x80
			check(append(append(enc, 0), b[:]...))
		}
	}
}
