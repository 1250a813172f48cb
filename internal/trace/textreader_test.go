package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// decodeSerially reads r with one Decoder, as the reader must read it:
// every trace up to the first error, and that error.
func decodeSerially(r io.Reader) ([]*Trace, error) { return readAll(NewDecoder(r)) }

// readAll reads every trace of r, and the error it stops on.
func readAll(r Reader) ([]*Trace, error) {
	var out []*Trace
	for {
		t, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}

// streamReaders are the ways the identity checks hand a stream over: at
// once, a byte per read, a byte every other read with empty reads
// between, with io.EOF on the last bytes, cut at byte cut by a read
// error, and paused there for 99 empty reads, which a Decoder waits out,
// and for 100, which it does not.
func streamReaders(in []byte, cut int) map[string]func() io.Reader {
	cut = min(cut, len(in))
	return map[string]func() io.Reader{
		"whole":       func() io.Reader { return bytes.NewReader(in) },
		"one byte":    func() io.Reader { return iotest.OneByteReader(bytes.NewReader(in)) },
		"empty reads": func() io.Reader { return &stutterReader{r: bytes.NewReader(in)} },
		"data+EOF":    func() io.Reader { return iotest.DataErrReader(bytes.NewReader(in)) },
		"read error": func() io.Reader {
			return io.MultiReader(bytes.NewReader(in[:cut]), iotest.ErrReader(iotest.ErrTimeout))
		},
		"99 empty reads": func() io.Reader {
			return io.MultiReader(bytes.NewReader(in[:cut]), &stalled{99}, bytes.NewReader(in[cut:]))
		},
		"100 empty reads": func() io.Reader {
			return io.MultiReader(bytes.NewReader(in[:cut]), &stalled{100}, bytes.NewReader(in[cut:]))
		},
	}
}

// stutterReader returns nothing on every other read and a byte on the
// rest: empty reads that never run to io.ErrNoProgress.
type stutterReader struct {
	r     io.Reader
	empty bool
}

func (s *stutterReader) Read(b []byte) (int, error) {
	if s.empty = !s.empty; s.empty {
		return 0, nil
	}
	return s.r.Read(b[:1])
}

// stalled returns nothing and no error on its first n reads, then
// io.EOF.
type stalled struct{ n int }

func (s *stalled) Read([]byte) (int, error) {
	if s.n == 0 {
		return 0, io.EOF
	}
	s.n--
	return 0, nil
}

// checkReaderMatchesDecoder reads in through a TextReader at 1, 2 and 8
// goroutines, with pieces cut from size bytes and grown to at most
// 4·size, from each of streamReaders, and wants what one Decoder reads:
// the same traces and the same error text.
func checkReaderMatchesDecoder(t *testing.T, in []byte, size, cut int) {
	t.Helper()
	for name, open := range streamReaders(in, cut) {
		want, werr := decodeSerially(open())
		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			got, gerr := readAll(newTextReader(open(), procs, size, 4*size))
			runtime.GOMAXPROCS(prev)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s, %d procs, pieces of %d: error %v, the decoder's %v\nin: %q", name, procs, size, gerr, werr, in)
			}
			if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d procs, pieces of %d: %d traces, the decoder read %d, or they differ\nin: %q", name, procs, size, len(got), len(want), in)
			}
		}
	}
}

// textReaderSeeds are streams of several traces: the decoder seeds
// joined under one header, traces opened by 'thread', 'end' lines the
// cut must pass over, a stream cut inside a trace, and errors in late
// traces.
func textReaderSeeds(f *testing.F) []string {
	var body strings.Builder
	for _, s := range textDecoderSeeds(f) {
		if rest, ok := strings.CutPrefix(s, TextHeader+"\n"); ok && !strings.Contains(rest, "mctrace") {
			body.WriteString(rest)
		}
	}
	joined := TextHeader + "\n" + body.String()
	implicit := "thread 0\nw 0x10 1\nend\nthread 1\nr 0x10 1\nrf 1:0 0:0\nend\n"
	return []string{
		joined,
		joined + joined[len(TextHeader)+1:],
		TextHeader + "\n" + implicit + implicit + "trace t\nthread 2\nf ll\nend\n",
		TextHeader + "\ntrace a\nthread 0\nend # a comment\ntrace b\nthread 0\nend\t\nend\nthread 1\nend\n",
		TextHeader + "\n" + implicit + "trace cut\nthread 0\nw 0x10",
		joined[:len(joined)*2/3],
		TextHeader + "\n" + implicit + implicit + implicit + "thread 0\nw 0x10 1 2 3\nend\n" + implicit,
		TextHeader + "\n" + implicit + implicit + "trace x\nthread 0\nend\ntrace y\nend\nend\n",
		"end\n" + TextHeader + "\n" + implicit,
		TextHeader + "\n\n# only comments\n\n",
	}
}

// TestTextReaderMatchesDecoder: every seed stream, read in pieces of 8
// to 256 bytes, reads as one Decoder reads it.
func TestTextReaderMatchesDecoder(t *testing.T) {
	for _, in := range textReaderSeeds(nil) {
		for _, size := range []int{8, 24, 64, 256} {
			checkReaderMatchesDecoder(t, []byte(in), size, len(in)*3/4)
		}
	}
}

// FuzzTextReader: a TextReader and a Decoder read every stream alike,
// whatever the piece size, the number of goroutines and the reader.
func FuzzTextReader(f *testing.F) {
	for _, in := range textReaderSeeds(f) {
		f.Add(in, uint8(16), uint16(len(in)/2))
	}
	f.Fuzz(func(t *testing.T, in string, size uint8, cut uint16) {
		checkReaderMatchesDecoder(t, []byte(in), 8+int(size), int(cut))
	})
}

// TestTextReaderReadErrorAfterEveryTrace: a read error strikes after
// every trace before it has been returned, at the line it cut.
func TestTextReaderReadErrorAfterEveryTrace(t *testing.T) {
	var buf bytes.Buffer
	tr := benchTrace(t)
	if err := WriteText(&buf, slices.Repeat([]*Trace{tr}, 6)...); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	cut := len(stream) - 100
	r := NewTextReader(io.MultiReader(bytes.NewReader(stream[:cut]), iotest.ErrReader(iotest.ErrTimeout)))
	got, err := readAll(r)
	line := bytes.Count(stream[:cut], []byte("\n")) + 1
	if want := fmt.Sprintf("trace: line %d: read: %v", line, iotest.ErrTimeout); err == nil || err.Error() != want || !errors.Is(err, iotest.ErrTimeout) {
		t.Errorf("error %v, want %q", err, want)
	}
	if len(got) != 5 || !reflect.DeepEqual(got[4], tr) {
		t.Errorf("%d traces before the error, want the 5 whole ones", len(got))
	}
}

// TestTextReaderLeavesNoGoroutine: a reader dropped with pieces in
// flight leaves no goroutine once they are decoded.
func TestTextReaderLeavesNoGoroutine(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, slices.Repeat([]*Trace{benchTrace(t)}, 40)...); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	// The reader is dropped after its first trace; only its pieces in
	// flight are kept, to wait on.
	pieces := func() []*piece {
		r := newTextReader(bytes.NewReader(buf.Bytes()), 4, 4<<10, 64<<10)
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		return r.flight
	}()
	if len(pieces) == 0 {
		t.Fatal("no piece in flight after the first trace")
	}
	for _, p := range pieces {
		<-p.done
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the dropped reader's pieces were decoded, %d before it", n, base)
	}
}

// buffered is what the reader holds of the stream once it has read to
// the stream's end: its pieces' buffers and the serial decoder's window.
func (r *TextReader) buffered() int {
	n := 0
	for _, p := range slices.Concat(r.flight, r.free) {
		n += len(p.buf)
	}
	if r.serial != nil {
		n += len(r.serial.cur.b)
	}
	return n
}

// TestTextReaderLongTraceBounded: a trace longer than a piece may grow,
// and a comment run inside a trace longer than that, decode as one
// Decoder decodes them, with short traces around them, and the reader
// holds no more than its pieces' cap and the serial decoder's window.
func TestTextReaderLongTraceBounded(t *testing.T) {
	const size, maxBytes = 4 << 10, 16 << 10
	var ops, comments strings.Builder
	for i := 0; i < 20_000; i++ {
		fmt.Fprintf(&ops, "w 0x%x %d\n", 0x100+16*(i%64), i+1)
		fmt.Fprintf(&comments, "# comment %d\n", i)
	}
	head := TextHeader + "\n" + strings.Repeat("trace s\nthread 0\nw 0x10 1\nend\n", 20)
	for name, in := range map[string]string{
		"a long trace":          head + "trace long\nthread 0\n" + ops.String() + "end\n" + head[len(TextHeader)+1:],
		"a comment run":         head + "trace comments\nthread 0\nw 0x10 1\n" + comments.String() + "r 0x10 1\nend\n" + head[len(TextHeader)+1:],
		"a long unclosed trace": head + "trace last\nthread 0\n" + ops.String(),
	} {
		want, werr := decodeSerially(strings.NewReader(in))
		for _, k := range []int{1, 2, 8} {
			r := newTextReader(strings.NewReader(in), k, size, maxBytes)
			got, err := readAll(r)
			if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %d at once: %d traces, %v; the decoder read %d, %v", name, k, len(got), err, len(want), werr)
			}
			if bound := k*(size+wordSlack) + maxBytes + wordSlack + readBufSize; r.buffered() > bound {
				t.Errorf("%s, %d at once: the reader holds %d bytes, want at most %d", name, k, r.buffered(), bound)
			}
		}
	}
}

// TestTextReaderLongLines: a line longer than the serial decoder's
// window, which its piece parses in place, and one longer than the line
// rule allows, which no piece can hold, read as one Decoder reads them,
// and so does what follows them, up to an error in a late trace.
func TestTextReaderLongLines(t *testing.T) {
	head := TextHeader + "\n" + strings.Repeat("trace s\nthread 0\nw 0x10 1\nend\n", 20)
	tail := head[len(TextHeader)+1:] + "trace late\nthread 0\nw 0x10\nend\n" + head[len(TextHeader)+1:]
	for name, in := range map[string]string{
		"a comment line past the window": head + "trace c\nthread 0\n# " + strings.Repeat("x", 100<<10) + "\nw 0x10 1\nend\n" + tail,
		"a line past the rule":           head + "trace r\nthread 0\n# " + strings.Repeat("x", shortLineLen) + "\nend\n" + tail,
	} {
		want, werr := decodeSerially(strings.NewReader(in))
		if werr == nil {
			t.Fatalf("%s: the decoder read no error", name)
		}
		for _, k := range []int{1, 2, 8} {
			got, err := readAll(newTextReader(strings.NewReader(in), k, readBufSize, 4*readBufSize))
			if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %d at once: %d traces, %v; the decoder read %d, %v", name, k, len(got), err, len(want), werr)
			}
		}
	}
}

// TestTextReaderLongLineInPlace: a stream whose long lines, a co line
// and a comment, run past the serial decoder's window but not past a
// piece, and which holds no fault, is read in pieces to its end: the
// reader never hands it to a serial decoder, and reads what one Decoder
// reads.
func TestTextReaderLongLineInPlace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, benchTrace(t), coTrace("longco", 16_000), benchTrace(t)); err != nil {
		t.Fatal(err)
	}
	comment := "# " + strings.Repeat("x", 100<<10) + "\n"
	in := buf.String() + "trace c\nthread 0\n" + comment + "w 0x10 1\nend\n"
	var long int
	for _, line := range strings.Split(in, "\n") {
		if len(line) > readBufSize {
			long++
		}
	}
	if long != 2 {
		t.Fatalf("%d lines past %d bytes, want 2", long, readBufSize)
	}
	want, werr := decodeSerially(strings.NewReader(in))
	if werr != nil || len(want) != 4 {
		t.Fatalf("the decoder read %d traces, %v", len(want), werr)
	}
	for _, k := range []int{1, 2, 8} {
		r := newTextReader(strings.NewReader(in), k, readBufSize, 16*readBufSize)
		got, err := readAll(r)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%d at once: %d traces, %v; the decoder read %d", k, len(got), err, len(want))
		}
		if r.serial != nil {
			t.Errorf("%d at once: the reader handed the stream to a serial decoder", k)
		}
	}
}

// TestTextReaderCarriesPieces: a reader that read its stream to its end
// leaves its pieces to the next NewTextReader, at most GOMAXPROCS of
// them and only those of a piece's first size, so a run over many
// one-trace streams decodes each allocating about what the trace holds,
// where every reader used to grow its own buffers and decoder storage.
func TestTextReaderCarriesPieces(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, benchTrace(t)); err != nil {
		t.Fatal(err)
	}
	one := buf.Bytes()
	long := []byte(TextHeader + "\ntrace long\nthread 0\n" + strings.Repeat("w 0x100 1\n", 2*readBufSize/10) + "end\n")
	ops := 0
	read := func(in []byte) {
		got, err := readAll(NewTextReader(bytes.NewReader(in)))
		if err != nil || len(got) != 1 {
			t.Fatalf("%d traces, %v; want 1", len(got), err)
		}
		ops = 0
		for _, th := range got[0].Threads {
			ops += len(th.Ops)
		}
	}
	// A reader whose piece outgrew its first size leaves it behind.
	for _, in := range [][]byte{one, long} {
		read(in)
		idle.Lock()
		n := len(idle.pieces)
		for _, p := range idle.pieces {
			if len(p.buf) != readBufSize+wordSlack {
				t.Errorf("an idle piece holds a buffer of %d bytes, want %d", len(p.buf), readBufSize+wordSlack)
			}
		}
		idle.Unlock()
		if n == 0 && len(in) == len(one) || n > runtime.GOMAXPROCS(0) {
			t.Errorf("%d idle pieces, want 1 to GOMAXPROCS", n)
		}
	}
	read(one)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const reads = 10
	for range reads {
		read(one)
	}
	runtime.ReadMemStats(&after)
	allocated := float64(after.TotalAlloc-before.TotalAlloc) / reads
	t.Logf("%.0f bytes a one-trace stream of %d ops", allocated, ops)
	if budget := float64(ops*decodeBytesPerOp + 1<<10); allocated > budget {
		t.Errorf("a one-trace stream allocates %.0f bytes, want at most %.0f", allocated, budget)
	}
}
