package trace

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
)

// TextReader decodes a text stream on every core. It cuts the stream
// into pieces of whole traces, decodes up to GOMAXPROCS pieces at once,
// each on a goroutine of its own with a Decoder, and returns the traces
// in stream order. It returns what a Decoder reading the same stream
// returns, errors included, line numbers and all:
//
//   - A piece is cut only after a line that is exactly "end". A Decoder
//     reading the stream is between traces there, or has failed before
//     it, so a piece starts between traces and one that decodes without
//     error yields the Decoder's traces.
//   - A piece holds fewer than shortLineLen bytes, so the line rule
//     cannot refuse any line in it: its decoder parses every line where
//     it lies, however long.
//   - When a piece fails, when the stream's reader returns an error, and
//     when a trace runs past the most bytes a piece may hold, the rest of
//     the stream, from the first byte no trace was returned from, goes to
//     one Decoder that reads it serially to its end, so every error is
//     the serial one.
//
// It reads ahead: before it returns the first trace it reads GOMAXPROCS
// pieces of 64 KiB each, or up to the stream's end, and it returns a
// trace once the piece holding it has been read, not as soon as the
// trace's own "end" line arrives. A caller that waits on a trace before
// it writes more of the stream must use a Decoder.
//
// A piece's goroutine decodes it and ends: it never waits on the reader,
// so a reader dropped mid-stream leaves no goroutine behind once its
// pieces are decoded. Piece buffers and decoders are kept from piece to
// piece, and at most k pieces of at most maxBytes each are held at once;
// a reader that reads its stream to its end leaves them to the next
// (see idle).
type TextReader struct {
	src source
	// k pieces are decoded at once at most. A piece is cut from size
	// bytes of the stream, or from more, up to maxBytes, when no "end"
	// line lies in them.
	k, size, maxBytes int
	flight            []*piece // launched pieces, in stream order
	free              []*piece
	// rest is what was read from the stream and not cut into a piece, in
	// the buffer of the last piece cut or of one cutting stopped in, or
	// the bytes NewReader read to tell the format.
	rest []byte
	// stop says why no piece is cut: the stream's error (io.EOF at its
	// end), or errLongTrace.
	stop error
	// line is the number of stream lines before the first byte no trace
	// was returned from; header says whether the header lies in them.
	line   int
	header bool
	// started says that a piece has held the stream's first byte, so
	// later pieces start past the header.
	started bool
	out     []*Trace // the last piece's traces; next is the first not returned
	next    int
	serial  *Decoder // when set, it reads the rest of the stream
}

// A piece is a run of whole lines of the stream and the decoder that
// reads it in place.
type piece struct {
	buf  []byte // the piece's bytes from buf[0], and room past them
	data []byte // the piece's bytes, as read
	dec  Decoder
	// What the decoding goroutine leaves, once it sends on done.
	traces []*Trace
	err    error
	done   chan struct{}
	busy   bool // launched and done not yet received
}

// endLine is the cut point: a line that is exactly "end", with the
// '\n' of the line before it.
var endLine = []byte("\nend\n")

// errLongTrace stops cutting where no "end" line lies in a piece's
// maxBytes. It is never returned: the serial decoder reads those bytes.
var errLongTrace = errors.New("trace: trace longer than a piece")

// NewTextReader returns a reader of the text stream r that decodes its
// traces on GOMAXPROCS goroutines, in pieces idle keeps, if it keeps any.
func NewTextReader(r io.Reader) *TextReader {
	t := newTextReader(r, runtime.GOMAXPROCS(0), readBufSize, 16*readBufSize)
	idle.Lock()
	n := max(0, len(idle.pieces)-t.k)
	t.free = append(t.free, idle.pieces[n:]...)
	clear(idle.pieces[n:])
	idle.pieces = idle.pieces[:n]
	idle.Unlock()
	return t
}

// idle keeps the pieces of readers that read their stream to its end,
// for the next NewTextReader: a run over many streams, as check over
// many files, grows a piece's buffer and its decoder's gathering storage
// once, not once a stream. It keeps at most GOMAXPROCS pieces, each with
// a buffer of readBufSize bytes, so its decoder holds no more than what
// so many bytes decode to.
var idle struct {
	sync.Mutex
	pieces []*piece
}

// release hands the reader's pieces to idle, up to what it keeps, once
// the stream is read to its end.
func (r *TextReader) release() {
	idle.Lock()
	defer idle.Unlock()
	for _, p := range r.free {
		if len(p.buf) == readBufSize+wordSlack && len(idle.pieces) < runtime.GOMAXPROCS(0) {
			idle.pieces = append(idle.pieces, p)
		}
	}
	r.free = nil
}

// newTextReader cuts pieces from size bytes, grown to at most maxBytes,
// and always to fewer than shortLineLen, so that the line rule cannot
// refuse a line in a piece.
func newTextReader(r io.Reader, k, size, maxBytes int) *TextReader {
	maxBytes = min(max(maxBytes, size), shortLineLen-1)
	return &TextReader{src: source{r: r}, k: max(k, 1), size: min(size, maxBytes), maxBytes: maxBytes}
}

// Next returns the next trace of the stream, or io.EOF after the last
// one, as Decoder.Next does.
func (r *TextReader) Next() (*Trace, error) {
	for {
		if r.next < len(r.out) {
			t := r.out[r.next]
			r.out[r.next] = nil
			r.next++
			return t, nil
		}
		if r.serial != nil {
			return r.serial.Next()
		}
		r.launch()
		if len(r.flight) == 0 {
			if r.stop == io.EOF {
				r.release()
				return nil, io.EOF
			}
			r.toSerial()
			continue
		}
		p := r.flight[0]
		r.wait(p)
		if p.err != nil {
			r.toSerial()
			continue
		}
		r.flight = r.flight[:copy(r.flight, r.flight[1:])]
		r.line += p.dec.line
		r.header = p.dec.headerOK
		r.out, r.next = p.traces, 0
		r.free = append(r.free, p)
	}
}

// launch cuts pieces from the stream and starts decoding them until k
// are in flight or no piece can be cut.
func (r *TextReader) launch() {
	for len(r.flight) < r.k && r.stop == nil {
		if len(r.rest) == 0 && r.src.err != nil {
			r.stop = r.src.err // nothing is left to cut
			break
		}
		var p *piece
		if n := len(r.free); n > 0 {
			p, r.free = r.free[n-1], r.free[:n-1]
		} else {
			p = &piece{done: make(chan struct{}, 1)}
		}
		// rest may lie in p's buffer: copy moves it to the front.
		lim := max(r.size, len(r.rest))
		if len(p.buf) < lim+wordSlack {
			p.buf = make([]byte, lim+wordSlack)
		}
		n := copy(p.buf, r.rest)
		r.rest = nil
		for from := 0; ; {
			n += r.src.fill(p.buf[n:lim], lim-n)
			if cut := cutPoint(p.buf[:n], from); cut > 0 {
				r.rest = p.buf[cut:n]
				r.start(p, cut)
				break
			}
			if r.src.err == io.EOF {
				r.stop = io.EOF
				if n > 0 {
					r.start(p, n)
				} else {
					r.free = append(r.free, p)
				}
				break
			}
			if r.src.err != nil || lim == r.maxBytes {
				r.stop = r.src.err
				if r.stop == nil {
					r.stop = errLongTrace
				}
				r.rest = p.buf[:n]
				break
			}
			from = max(0, n-len(endLine)+1)
			lim = min(2*lim, r.maxBytes)
			if len(p.buf) < lim+wordSlack {
				b := make([]byte, lim+wordSlack)
				copy(b, p.buf[:n])
				p.buf = b
			}
		}
	}
}

// cutPoint returns the offset just past an "end" line of b whose
// preceding '\n' lies at or past from: the first one in b's second
// half, else the last one, else -1.
func cutPoint(b []byte, from int) int {
	mid := max(from, len(b)/2)
	if i := bytes.Index(b[mid:], endLine); i >= 0 {
		return mid + i + len(endLine)
	}
	if i := bytes.LastIndex(b[from:min(mid+len(endLine)-1, len(b))], endLine); i >= 0 {
		return from + i + len(endLine)
	}
	return -1
}

// start launches p on its buffer's first n bytes. The decoder ends its
// last line at the piece's last '\n', or at one written past it when the
// stream's tail has none, so it writes nothing into p.buf.
func (r *TextReader) start(p *piece, n int) {
	p.data = p.buf[:n]
	end := n
	if n > 0 && p.buf[n-1] == '\n' {
		end--
	} else {
		p.buf[n] = '\n'
	}
	d := &p.dec
	d.src, d.err = source{err: io.EOF}, nil
	d.cur = cursor{b: p.buf, n: end}
	d.line, d.headerOK = 0, r.started
	r.started = true
	p.busy = true
	r.flight = append(r.flight, p)
	go p.decode()
}

// decode reads the piece's traces, then signals done.
func (p *piece) decode() {
	p.traces, p.err = p.traces[:0], nil
	for {
		t, err := p.dec.Next()
		if err != nil {
			if err != io.EOF {
				p.err = err
			}
			break
		}
		p.traces = append(p.traces, t)
	}
	p.done <- struct{}{}
}

// wait returns once p's goroutine is done with it.
func (r *TextReader) wait(p *piece) {
	if p.busy {
		<-p.done
		p.busy = false
	}
}

// toSerial hands the rest of the stream, the bytes of the pieces in
// flight once they are decoded and rest, then what is left to read, to
// the serial decoder, and lets the pieces go.
func (r *TextReader) toSerial() {
	n := len(r.rest)
	for _, p := range r.flight {
		r.wait(p)
		n += len(p.data)
	}
	b := make([]byte, max(readBufSize, n+wordSlack))
	n = 0
	for _, p := range r.flight {
		n += copy(b[n:], p.data)
	}
	n += copy(b[n:], r.rest)
	b[n] = '\n'
	r.serial = &Decoder{src: r.src, cur: cursor{b: b, n: n}, line: r.line, headerOK: r.header}
	r.flight, r.free, r.rest = nil, nil, nil
}
