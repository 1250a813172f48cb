package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/memmodel"
)

// TestHandWrittenTrace: the friendly subset — no explicit keys, no rf,
// no co — resolves reads by value and defaults co to write order.
func TestHandWrittenTrace(t *testing.T) {
	const in = `mctrace 1
# message passing, forbidden outcome
trace mp-forbidden
thread 1
w 0x100 1
w 0x140 1
thread 2
r 0x140 1
r 0x100 0
end
`
	traces, err := DecodeAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].Name != "mp-forbidden" {
		t.Fatalf("decoded %+v", traces)
	}
	x, err := traces[0].Execution()
	if err != nil {
		t.Fatal(err)
	}
	res := memmodel.NewChecker().Check(x, memmodel.TSO{})
	if res.Valid {
		t.Fatal("forbidden MP outcome accepted under TSO")
	}
	if res.Kind != memmodel.ViolationGHB {
		t.Fatalf("violation kind = %v, want ghb", res.Kind)
	}
	if memmodel.NewChecker().Check(x, memmodel.RMO{}).Valid != true {
		t.Fatal("MP outcome must be allowed under RMO without fences")
	}
}

func TestFenceAndRMWLines(t *testing.T) {
	const in = `mctrace 1
trace
thread 0
w 0x100 1
f ss
w 0x140 1
thread 1
u 0x140 1 2
f full
r 0x100 1
end
`
	traces, err := DecodeAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	x, err := traces[0].Execution()
	if err != nil {
		t.Fatal(err)
	}
	if !memmodel.NewChecker().Check(x, memmodel.PSO{}).Valid {
		t.Fatal("fenced MP with RMW should be valid under PSO")
	}
}

func TestVersionRejected(t *testing.T) {
	for _, in := range []string{
		"mctrace 2\ntrace\nend\n",
		"mctrace 0\ntrace\nend\n",
		"mctrace nine\ntrace\nend\n",
		"mctrace\ntrace\nend\n",
		"nottrace 1\n",
	} {
		if _, err := DecodeAll(strings.NewReader(in)); err == nil {
			t.Errorf("header %q accepted, want version/header error", strings.SplitN(in, "\n", 2)[0])
		}
	}
}

func TestBinaryVersionRejected(t *testing.T) {
	// Magic + version 2.
	if _, err := DecodeAllBinary(strings.NewReader("MCVB\x02")); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("binary version 2 accepted: %v", err)
	}
	if _, err := DecodeAllBinary(strings.NewReader("NOPE\x01")); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Errorf("binary bad magic accepted: %v", err)
	}
}

// TestLinePreciseErrors: decoder errors name the offending 1-based
// line.
func TestLinePreciseErrors(t *testing.T) {
	cases := []struct {
		in       string
		wantLine string
	}{
		{"mctrace 1\ntrace t\nthread 0\nr 0x100\nend\n", "line 4"},
		{"mctrace 1\ntrace t\nr 0x100 1\nend\n", "line 3"},
		{"mctrace 1\ntrace t\nthread 0\nw zzz 1\nend\n", "line 4"},
		{"mctrace 1\ntrace t\nthread 0\nf sideways\nend\n", "line 4"},
		{"mctrace 1\ntrace t\nthread 0\nrf 0:0\nend\n", "line 4"},
		{"mctrace 1\ntrace t\nthread 0\nbogus 1 2\nend\n", "line 4"},
		{"mctrace 1\ntrace t\nthread -1\nend\n", "line 3"},
		{"mctrace 1\ntrace t\nthread 0\nw 0x100 1\n", "line 4"}, // missing end
		{"mctrace 1\ntrace a\ntrace b\n", "line 3"},
		// The ceilings the binary format shares: int-typed fields stop
		// below 1<<31, names at 1<<16 bytes.
		{"mctrace 1\ntrace t\nthread 2147483648\nend\n", "line 3"},
		{"mctrace 1\ntrace t\nthread 4294967296\nend\n", "line 3"},
		{"mctrace 1\ntrace t\nthread 0\nw 0x100 1 @2147483648\nend\n", "line 4"},
		{"mctrace 1\ntrace t\nthread 0\nw 0x100 1 @0.2147483648\nend\n", "line 4"},
		{"mctrace 1\ntrace t\nthread 0\nr 0x100 0\nrf 2147483648:0 init\nend\n", "line 5"},
		{"mctrace 1\ntrace t\nthread 0\nr 0x100 0\nrf 0:2147483648 init\nend\n", "line 5"},
		{"mctrace 1\ntrace t\nthread 0\nr 0x100 0\nrf 0:0.2147483648 init\nend\n", "line 5"},
		{"mctrace 1\ntrace t\nthread 0\nw 0x100 1\nco 0x100 0:4294967296\nend\n", "line 5"},
		{"mctrace 1\n# padding\ntrace " + strings.Repeat("n", maxNameLen+1) + "\nend\n", "line 3"},
	}
	for _, c := range cases {
		_, err := DecodeAll(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("input %q accepted", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.wantLine) {
			t.Errorf("input %q: error %q does not name %s", c.in, err, c.wantLine)
		}
	}
}

// TestDecoderStreaming: Next yields traces one at a time and io.EOF
// at the end.
func TestDecoderStreaming(t *testing.T) {
	const in = `mctrace 1
trace a
thread 0
w 0x100 1
end
trace b
thread 0
r 0x100 0
end
`
	d := NewDecoder(strings.NewReader(in))
	a, err := d.Next()
	if err != nil || a.Name != "a" {
		t.Fatalf("first = %v, %v", a, err)
	}
	b, err := d.Next()
	if err != nil || b.Name != "b" {
		t.Fatalf("second = %v, %v", b, err)
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("third err = %v, want io.EOF", err)
	}
}

// TestExecutionErrors: structurally broken traces fail at Execution
// time with the trace named.
func TestExecutionErrors(t *testing.T) {
	cases := []string{
		// Ambiguous read value (two writes of 1).
		"mctrace 1\ntrace amb\nthread 0\nw 0x100 1\nw 0x100 1\nthread 1\nr 0x100 1\nend\n",
		// Value never produced.
		"mctrace 1\ntrace missing\nthread 0\nr 0x100 7\nend\n",
		// rf references an unknown event.
		"mctrace 1\ntrace dangling\nthread 0\nr 0x100 0\nrf 0:0 3:9\nend\n",
		// co misses a registered write.
		"mctrace 1\ntrace shortco\nthread 0\nw 0x100 1\nw 0x100 2\nco 0x100 0:0\nend\n",
		// duplicate explicit key.
		"mctrace 1\ntrace dupkey\nthread 0\nw 0x100 1 @0\nw 0x100 2 @0\nend\n",
		// duplicate thread.
		"mctrace 1\ntrace dupthread\nthread 0\nthread 0\nend\n",
	}
	for _, in := range cases {
		traces, err := DecodeAll(strings.NewReader(in))
		if err != nil {
			t.Errorf("input %q failed at decode (%v), want Execution-time error", in, err)
			continue
		}
		if _, err := traces[0].Execution(); err == nil {
			t.Errorf("input %q materialized, want error", in)
		}
	}
}

// TestValueResolutionMatchesPins: a trace with explicit rf/co and its
// pin-free equivalent materialize identically when values are
// unambiguous.
func TestValueResolutionMatchesPins(t *testing.T) {
	const pinned = `mctrace 1
trace p
thread 1
w 0x100 1
thread 2
r 0x100 1
rf 2:0 1:0
co 0x100 1:0
end
`
	const inferred = `mctrace 1
trace p
thread 1
w 0x100 1
thread 2
r 0x100 1
end
`
	tp, err := DecodeAll(strings.NewReader(pinned))
	if err != nil {
		t.Fatal(err)
	}
	ti, err := DecodeAll(strings.NewReader(inferred))
	if err != nil {
		t.Fatal(err)
	}
	xp, err := tp[0].Execution()
	if err != nil {
		t.Fatal(err)
	}
	xi, err := ti[0].Execution()
	if err != nil {
		t.Fatal(err)
	}
	rp := memmodel.NewChecker().Check(xp, memmodel.SC{})
	ri := memmodel.NewChecker().Check(xi, memmodel.SC{})
	if !rp.Valid || !ri.Valid {
		t.Fatalf("valid trace rejected: pinned=%v inferred=%v", rp.Valid, ri.Valid)
	}
}

// TestDecoderFieldsMatchStringsFields: the decoder's line splitter
// separates exactly where strings.Fields does — ASCII and Unicode white
// space, invalid UTF-8 kept as field bytes — from line to line in one
// buffer.
func TestDecoderFieldsMatchStringsFields(t *testing.T) {
	var d Decoder
	for _, line := range []string{
		"", " ", "a", " a ", "r 0x10 1 a @3.1", "co\t0x100  0:1\v1:2\f2:3\r", "w\n1",
		"ffull", "f full @2", "\u3000trace\u2003x\u00a0", "n\u0085el", "a\xffb \xc2 c\x80", "\u00e9 \u00e8",
		"\x1c\x1f\x00 x", strings.Repeat("k ", 70), "r 0x10 \u00a0x", "w 1 2\u2003@3", "u 1 2 3\xff",
	} {
		var got []string
		for _, f := range d.fields([]byte(line)) {
			got = append(got, string(f))
		}
		if want := strings.Fields(line); !slices.Equal(got, want) {
			t.Errorf("fields(%q) = %q, strings.Fields gives %q", line, got, want)
		}
	}
}

// TestDecodeAllocatesOnlyTheTrace: a decoder that has held one trace
// decodes the next one into storage it keeps, and allocates only what
// it hands out — the Trace, its name, Threads, one Ops per thread, RF,
// CO and the writes all co orders share — each at its exact size.
func TestDecodeAllocatesOnlyTheTrace(t *testing.T) {
	objects, allocated, got := decodeCost(t, WriteText, func(r io.Reader) func() (*Trace, error) { return NewDecoder(r).Next })
	own := heldBytes(got)
	t.Logf("%.1f objects, %.0f bytes per trace; the trace holds %d bytes", objects, allocated, own)
	if limit := float64(len(got.Threads) + 6); objects > limit {
		t.Errorf("decoding a trace of %d threads allocates %.1f objects, want at most %.0f", len(got.Threads), objects, limit)
	}
	if limit := 1.25 * float64(own); allocated > limit {
		t.Errorf("decoding a trace allocates %.0f bytes, want at most %.0f (1.25 x the %d it holds)", allocated, limit, own)
	}
}

// decodeCost encodes benchTrace in a stream and measures what decoding
// one trace of it costs a decoder that has decoded one before: objects
// and bytes allocated per trace, and the last trace decoded.
func decodeCost(t *testing.T, encode func(io.Writer, ...*Trace) error, decoder func(io.Reader) func() (*Trace, error)) (objects, allocated float64, got *Trace) {
	t.Helper()
	tr := benchTrace(t)
	// AllocsPerRun makes one more call than it counts, after the warming
	// one here.
	const runs = 50
	var buf bytes.Buffer
	if err := encode(&buf, slices.Repeat([]*Trace{tr}, runs+2)...); err != nil {
		t.Fatal(err)
	}
	next := decoder(&buf)
	if _, err := next(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	objects = testing.AllocsPerRun(runs, func() {
		var err error
		if got, err = next(); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	allocated = float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	return objects, allocated, got
}

// heldBytes is what tr's own storage holds: the Trace, its name and
// every list at its length.
func heldBytes(tr *Trace) uintptr {
	own := unsafe.Sizeof(Trace{}) + uintptr(len(tr.Name)) +
		uintptr(len(tr.Threads))*unsafe.Sizeof(Thread{}) +
		uintptr(len(tr.RF))*unsafe.Sizeof(RFEdge{}) +
		uintptr(len(tr.CO))*unsafe.Sizeof(COOrder{})
	for _, th := range tr.Threads {
		own += uintptr(len(th.Ops)) * unsafe.Sizeof(Op{})
	}
	for _, c := range tr.CO {
		own += uintptr(len(c.Writes)) * unsafe.Sizeof(Ref{})
	}
	return own
}

// TestLongCoLineRoundTrips: a co order of 600 000 writes on one address
// is a text line of several megabytes. The text decoder takes it as the
// binary one does, text -> binary -> text is the identity on it, and a
// stream cut off inside that line fails with the line named.
func TestLongCoLineRoundTrips(t *testing.T) {
	const n = 600_000
	ops := make([]Op, n)
	writes := make([]Ref, n)
	for i := range ops {
		ops[i] = Op{Kind: OpWrite, Addr: 0x100, Value: uint64(i + 1)}
		writes[i] = Ref{TID: 0, Instr: i}
	}
	tr := &Trace{Name: "long-co", Threads: []Thread{{TID: 0, Ops: ops}}, CO: []COOrder{{Addr: 0x100, Writes: writes}}}
	var text bytes.Buffer
	if err := WriteText(&text, tr); err != nil {
		t.Fatal(err)
	}
	in := text.Bytes()
	coStart := bytes.Index(in, []byte("\nco ")) + 1
	if coLen := bytes.IndexByte(in[coStart:], '\n'); coLen < 4<<20 {
		t.Fatalf("co line is %d bytes, want a line longer than 4 MiB", coLen)
	}

	fromText, err := DecodeAll(bytes.NewReader(in))
	if err != nil {
		t.Fatalf("text decoder rejects the long co line: %v", err)
	}
	var bin bytes.Buffer
	if err := WriteBinary(&bin, fromText...); err != nil {
		t.Fatal(err)
	}
	fromText = nil
	fromBin, err := DecodeAllBinary(&bin)
	if err != nil {
		t.Fatalf("binary decoder rejects the text-accepted trace: %v", err)
	}
	var again bytes.Buffer
	if err := WriteText(&again, fromBin...); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), in) {
		t.Fatal("text -> binary -> text is not the identity on the long co line")
	}

	coLine := 1 + bytes.Count(in[:coStart], []byte("\n"))
	for _, cut := range []int{coStart + (len(in)-coStart)/2, len(in) - len("end\n")} {
		_, err := DecodeAll(bytes.NewReader(in[:cut]))
		if want := fmt.Sprintf("trace: line %d: ", coLine); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("stream cut at byte %d of %d: error %v, want one starting %q", cut, len(in), err, want)
		}
	}
}

// repeatReader serves its pattern over and over and never ends.
type repeatReader struct {
	pat []byte
	off int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	for n := 0; n < len(p); {
		c := copy(p[n:], r.pat[r.off:])
		n += c
		r.off = (r.off + c) % len(r.pat)
	}
	return len(p), nil
}

// TestEndlessLineFails: a line that never ends is cut off by the line
// rule, at the line it is on, once it passes the format's ceilings:
// 4 MiB before the header, 64 bytes a field past 4 MiB after it, and
// the fields of a maximal co order.
func TestEndlessLineFails(t *testing.T) {
	for _, c := range []struct {
		prefix, pat, want string
	}{
		{"", "x", "trace: line 1: line of more than 4194304 bytes before the header"},
		{"# a comment\n", "no header ", "trace: line 2: line of more than 4194304 bytes before the header"},
		{"mctrace 1\ntrace t\nthread 0\n", "0", "trace: line 4: line of 4259840 bytes exceeds 4194304 with more than 64 bytes a field (fields: 1)"},
		{"mctrace 1\ntrace t\nco 0x1", " ", "trace: line 3: line of 4259840 bytes exceeds 4194304 with more than 64 bytes a field (fields: 2)"},
		{"mctrace 1\ntrace t\nco 0x1", " 0", "trace: line 3: line of more than 16777218 fields (a co order holds at most 16777216 writes)"},
	} {
		r := io.MultiReader(strings.NewReader(c.prefix), &repeatReader{pat: bytes.Repeat([]byte(c.pat), 4096)})
		_, err := DecodeAll(r)
		if err == nil || err.Error() != c.want {
			t.Errorf("%q then %q forever: error %v, want %q", c.prefix, c.pat, err, c.want)
		}
	}
}

// failingReader serves its bytes, then an error instead of io.EOF.
type failingReader struct{ r io.Reader }

var errReadFailed = errors.New("device gone")

func (f failingReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		err = errReadFailed
	}
	return n, err
}

// TestReadErrorNamesTheLine: an error from the reader is reported at the
// line being read when it struck, wrapped so errors.Is finds it.
func TestReadErrorNamesTheLine(t *testing.T) {
	for _, c := range []struct {
		in, want string
	}{
		{"mctrace 1\ntrace t\nthread 0\n", "trace: line 4: read: device gone"},
		{"mctrace 1\ntrace t\nthread 0\nw 0x1", "trace: line 4: read: device gone"},
		{"", "trace: line 1: read: device gone"},
	} {
		_, err := DecodeAll(failingReader{strings.NewReader(c.in)})
		if err == nil || err.Error() != c.want || !errors.Is(err, errReadFailed) {
			t.Errorf("input %q: error %v, want %q wrapping the read error", c.in, err, c.want)
		}
	}
}

// numberSpellings are the spellings the decoder's in-place number
// parsing must treat exactly as strconv does: the canonical ones it
// reads itself and their neighbours it must hand over.
var numberSpellings = []string{
	"0", "00", "017", "0o17", "0b101", "0x", "0X1f", "0xFFFFFFFFFFFFFFFF", "0x1_0", "1_000",
	"+5", "-1", "18446744073709551615", "18446744073709551616", "2147483647", "2147483648",
	"0x10000000000000000", "9999999999999999999", "10000000000000000000", "0x00000000000000001",
	"000000001", "999999999", "1000000000", "0xg", "1a", "@1", "1.2", "1:2", "é",
}

// TestNumberSpellingsMatchStrconv: every spelling, as a thread id, an
// address, a value, a key pin's sub and an rf ref's instruction, decodes
// to what strconv makes of it, or fails with the error strconv's answer
// gives.
func TestNumberSpellingsMatchStrconv(t *testing.T) {
	for _, tok := range numberSpellings {
		checkNumberSpelling(t, tok)
	}
}

// checkNumberSpelling decodes tok in each place a trace spells a number,
// a one-trace stream per place, and compares the field decoded or the
// error with what the strconv calls the format is defined by give.
func checkNumberSpelling(t *testing.T, tok string) {
	t.Helper()
	u, uerr := strconv.ParseUint(tok, 0, 64)
	i, ierr := strconv.Atoi(tok)
	intField := ierr == nil && i >= 0 && i < maxIntField
	var tidErr string
	switch {
	case ierr != nil:
		tidErr = fmt.Sprintf("trace: line 3: malformed thread id %q: %v", tok, ierr)
	case i < 0:
		tidErr = fmt.Sprintf("trace: line 3: thread id %d is negative (TID -1 is reserved for initial writes)", i)
	case i >= maxIntField:
		tidErr = fmt.Sprintf("trace: line 3: thread id %d out of range (limit %d)", i, maxIntField)
	}
	errText := func(ok bool, format string, args ...any) string {
		if ok {
			return ""
		}
		return fmt.Sprintf(format, args...)
	}
	ref, refErr := stringRef("0:" + tok)
	for _, c := range []struct {
		place, body string
		got         func(*Trace) uint64
		want        uint64
		wantErr     string
	}{
		{"tid", "thread " + tok, func(tr *Trace) uint64 { return uint64(tr.Threads[0].TID) }, uint64(i), tidErr},
		{"address", "thread 0\nw " + tok + " 1", func(tr *Trace) uint64 { return uint64(tr.Threads[0].Ops[0].Addr) }, u,
			errText(uerr == nil, "trace: line 4: malformed address %q: %v", tok, uerr)},
		{"value", "thread 0\nw 0x100 " + tok + " a", func(tr *Trace) uint64 { return tr.Threads[0].Ops[0].Value }, u,
			errText(uerr == nil, "trace: line 4: malformed value %q: %v", tok, uerr)},
		{"pin", "thread 0\nw 0x100 1 @0." + tok, func(tr *Trace) uint64 { return uint64(tr.Threads[0].Ops[0].Sub) }, uint64(i),
			errText(intField, "trace: line 4: malformed or out-of-range key pin %q", "@0."+tok)},
		{"ref", "thread 0\nr 0x100 0\nrf 0:" + tok + " init", func(tr *Trace) uint64 {
			r := tr.RF[0].Read
			return uint64(r.Instr)<<32 | uint64(r.Sub)
		}, uint64(ref.Instr)<<32 | uint64(ref.Sub), errText(refErr == nil, "trace: line 5: %v", refErr)},
	} {
		in := "mctrace 1\ntrace n\n" + c.body + "\nend\n"
		traces, err := DecodeAll(strings.NewReader(in))
		switch {
		case c.wantErr != "":
			if err == nil || err.Error() != c.wantErr {
				t.Errorf("%q as %s: error %v, want %q", tok, c.place, err, c.wantErr)
			}
		case err != nil:
			t.Errorf("%q as %s: %v, want %d", tok, c.place, err, c.want)
		case c.got(traces[0]) != c.want:
			t.Errorf("%q as %s decodes to %d, want %d", tok, c.place, c.got(traces[0]), c.want)
		}
	}
}

// stringRef is the event-ref parser as the format defines it, on strings
// with strconv.Atoi: the reference the decoder's in-place one answers to.
func stringRef(s string) (Ref, error) {
	var r Ref
	field := func(s string) (int, bool) {
		v, err := strconv.Atoi(s)
		return v, err == nil && v >= 0 && v < maxIntField
	}
	ts, rest, ok := strings.Cut(s, ":")
	if !ok {
		return r, fmt.Errorf("malformed event ref %q (want tid:instr[.sub])", s)
	}
	if r.TID, ok = field(ts); !ok {
		return r, fmt.Errorf("malformed or out-of-range event ref %q (bad tid)", s)
	}
	is, ss, dotted := strings.Cut(rest, ".")
	if r.Instr, ok = field(is); !ok {
		return r, fmt.Errorf("malformed or out-of-range event ref %q (bad instr)", s)
	}
	if dotted {
		if r.Sub, ok = field(ss); !ok {
			return r, fmt.Errorf("malformed or out-of-range event ref %q (bad sub)", s)
		}
	}
	return r, nil
}
