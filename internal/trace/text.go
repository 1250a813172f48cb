package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"unicode"
	"unicode/utf8"

	"repro/internal/memmodel"
	"repro/internal/memsys"
)

// TextHeader is the first line of every text trace stream. The version
// is explicit so decoders can reject formats they do not speak instead
// of misparsing them.
const TextHeader = "mctrace 1"

// The text format, line by line (# starts a comment, blank lines are
// skipped, one header per stream, any number of traces after it):
//
//	mctrace 1
//	trace <name>             begin a trace (name optional)
//	thread <tid>             begin a thread; ops follow in program order
//	r <addr> <val> [a] [@i[.s]]   read observing val
//	w <addr> <val> [a] [@i[.s]]   write storing val
//	f full|ss|ll [@i[.s]]         fence
//	u <addr> <rval> <wval> [@i]   atomic RMW reading rval, writing wval
//	rf <tid>:<i>[.<s>] <tid>:<i>[.<s>]|init   observed read-from edge
//	co <addr> <tid>:<i>[.<s>] ...             coherence order of addr
//	end                      finish the trace
//
// Addresses and values accept any spelling strconv.ParseUint base-0
// does (0x..., 0o..., 0b..., leading-zero octal, decimal, underscores);
// the canonical encoder writes addresses in hex and values in decimal,
// and the decoder reads those spellings in place, handing every other
// one to strconv. "a" marks a manually-paired RMW half; "@i[.s]" pins
// the event key when it differs from the positional default (running
// instruction index, sub 0). A line may be longer than 4 MiB only
// within the format's ceilings; see the line rule below.

// WriteText encodes traces canonically to w, header first. A trace the
// formats cannot carry is refused before any of its bytes are written.
func WriteText(w io.Writer, traces ...*Trace) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(TextHeader + "\n")
	var buf []byte
	for _, t := range traces {
		if err := t.encodable(); err != nil {
			return err
		}
		buf = appendTextTrace(buf[:0], t)
		bw.Write(buf)
	}
	return bw.Flush()
}

// appendTextTrace appends t's canonical text encoding to buf.
func appendTextTrace(buf []byte, t *Trace) []byte {
	buf = append(buf, "trace"...)
	if t.Name != "" {
		buf = append(buf, ' ')
		buf = append(buf, t.Name...)
	}
	buf = append(buf, '\n')
	for _, th := range t.Threads {
		buf = append(buf, "thread "...)
		buf = strconv.AppendInt(buf, int64(th.TID), 10)
		buf = append(buf, '\n')
		for i := range th.Ops {
			op := &th.Ops[i]
			switch op.Kind {
			case OpRead, OpWrite:
				buf = append(buf, op.Kind.String()...)
				buf = appendAddr(buf, op.Addr)
				buf = append(buf, ' ')
				buf = strconv.AppendUint(buf, op.Value, 10)
				if op.Atomic {
					buf = append(buf, " a"...)
				}
			case OpFence:
				buf = append(buf, "f "...)
				buf = append(buf, op.Fence.String()...)
			case OpRMW:
				buf = append(buf, 'u')
				buf = appendAddr(buf, op.Addr)
				buf = append(buf, ' ')
				buf = strconv.AppendUint(buf, op.Value, 10)
				buf = append(buf, ' ')
				buf = strconv.AppendUint(buf, op.Value2, 10)
			}
			if op.Keyed {
				buf = append(buf, " @"...)
				buf = strconv.AppendInt(buf, int64(op.Instr), 10)
				if op.Sub != 0 && op.Kind != OpRMW {
					buf = append(buf, '.')
					buf = strconv.AppendInt(buf, int64(op.Sub), 10)
				}
			}
			buf = append(buf, '\n')
		}
	}
	for _, e := range t.RF {
		buf = append(buf, "rf "...)
		buf = appendRef(buf, e.Read)
		if e.Init {
			buf = append(buf, " init\n"...)
		} else {
			buf = append(buf, ' ')
			buf = appendRef(buf, e.Write)
			buf = append(buf, '\n')
		}
	}
	for _, c := range t.CO {
		buf = append(buf, "co"...)
		buf = appendAddr(buf, c.Addr)
		for _, w := range c.Writes {
			buf = append(buf, ' ')
			buf = appendRef(buf, w)
		}
		buf = append(buf, '\n')
	}
	return append(buf, "end\n"...)
}

// appendAddr appends " 0x" and a in lower-case hex.
func appendAddr(buf []byte, a memsys.Addr) []byte {
	return strconv.AppendUint(append(buf, " 0x"...), uint64(a), 16)
}

// appendRef appends r as Ref.String spells it.
func appendRef(buf []byte, r Ref) []byte {
	buf = strconv.AppendInt(buf, int64(r.TID), 10)
	buf = append(buf, ':')
	buf = strconv.AppendInt(buf, int64(r.Instr), 10)
	if r.Sub != 0 {
		buf = append(buf, '.')
		buf = strconv.AppendInt(buf, int64(r.Sub), 10)
	}
	return buf
}

// Decoder streams traces out of a text stream, validating the header
// on the first read. It reads the stream into a window it owns and
// walks each line once: one pass over a line's bytes finds its end and
// where its tokens lie, and each token is then read in place. Errors
// carry the 1-based line number they were detected on.
type Decoder struct {
	src source // the stream, and how reading it stopped
	// cur walks the line being parsed, in the decoder's window.
	cur      cursor
	line     int
	headerOK bool
	err      error
	// The trace being decoded gathers here, in storage reused from trace
	// to trace, and is copied out into exact-size slices at its end:
	// threads (each one's Ops set as it closes), the open thread's ops,
	// rf edges, and co orders, whose writes all sit in coRefs.
	threads []Thread
	ops     []Op
	rf      []RFEdge
	co      []coSpan
	coRefs  []Ref
}

// coSpan is one co order while its trace is decoded: its writes are
// coRefs[previous span's end:end].
type coSpan struct {
	addr memsys.Addr
	end  int
}

// NewDecoder returns a streaming text decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{src: source{r: r}, cur: cursor{b: make([]byte, readBufSize)}}
}

// The text format's line rule. A line whose '\n' comes within its first
// readBufSize bytes, or that lies whole in the window and runs to at most
// shortLineLen bytes, is parsed where it lies; any other is read a
// readBufSize chunk at a time and held to the rule as each arrives, so
// memory grows only with the fields a trace may hold. Any line may run
// to shortLineLen bytes. Past the header, a longer line is taken while
// it holds at most maxLineFields fields (a co line of maxCount writes)
// and averages at most bytesPerField bytes a field; a canonical ref
// takes at most 33.
const (
	readBufSize   = 64 << 10
	shortLineLen  = 4 << 20
	maxLineFields = maxCount + 2
	bytesPerField = 64
)

func (d *Decoder) errf(format string, args ...any) error {
	if d.err == nil {
		d.err = fmt.Errorf("trace: line %d: "+format, append([]any{d.line}, args...)...)
	}
	return d.err
}

// next moves to the next line holding a token and returns that token,
// the line's directive; ok=false at end of stream or on a read error.
// The token is only good until the next call.
func (d *Decoder) next() ([]byte, bool) {
	for d.nextLine() {
		d.line++
		if d.cur.ntok > 0 {
			return d.cur.token(0), true
		}
	}
	return nil, false
}

// nextLine sets the cursor on the stream's next line, with its first
// tokens lexed, reading more of the stream while the window holds no
// whole line; false at the end of the stream or on an error.
func (d *Decoder) nextLine() bool {
	c := &d.cur
	for start := c.end; ; {
		if start < c.n {
			c.from, c.i, c.end = start, start, 0
			if c.lex(); c.end == 0 { // lex stopped short of the '\n'
				c.end = c.i + bytes.IndexByte(c.b[c.i:], '\n') + 1
			}
			// A line of at most shortLineLen bytes, its '\n' counted, is
			// parsed where it lies once it is whole, however long: the line
			// rule cannot refuse it, and every line of a TextReader's piece
			// is one.
			if n := c.end - start; n > readBufSize && (n > shortLineLen || c.end > c.n && d.src.err == nil) {
				return d.longLine(start)
			}
			if c.end <= c.n {
				return true
			}
		}
		// No whole line from start: move what there is of it to the
		// window's front and read until its '\n' comes, it outgrows the
		// line rule's chunk or the stream stops, looking at each new
		// byte once, so a line read in small pieces is lexed once.
		if d.src.err != nil {
			return d.lastLine(start)
		}
		c.n = copy(c.b, c.b[start:c.n])
		start = 0
		for seen := c.n; ; seen = c.n {
			d.fill(c.n + 1)
			if d.src.err != nil || c.n >= readBufSize || bytes.IndexByte(c.b[seen:c.n], '\n') >= 0 {
				break
			}
		}
	}
}

// longLine reads the line at start, which has no '\n' in its first
// readBufSize bytes, a readBufSize chunk at a time from the window's
// front, counting its fields as they arrive and failing it as soon as
// it breaks the line rule.
func (d *Decoder) longLine(start int) bool {
	c := &d.cur
	c.n = copy(c.b, c.b[start:c.n])
	fields, inField, scanned := 0, false, 0
	for end := readBufSize; ; end += readBufSize {
		d.fill(end)
		n := min(c.n, end)
		k := bytes.IndexByte(c.b[end-readBufSize:n], '\n')
		if k >= 0 {
			n = end - readBufSize + k + 1
		}
		// The chunk is full and the line goes on past it.
		more := k < 0 && (c.n > end || c.n == end && d.src.err == nil)
		// A rune cut by the chunk's end is counted once it is whole.
		for scanned < n && (!more || utf8.FullRune(c.b[scanned:n])) {
			k, size := byteClass[c.b[scanned]], 1
			space := k == spaceByte || k == newlineByte
			if k == runeByte {
				space, size = runeSpaceAt(c.b[scanned:n])
			}
			if !space && !inField {
				fields++
			}
			inField = !space
			scanned += size
		}
		if broken := d.breaksLineRule(n, fields); broken != "" {
			d.err = fmt.Errorf("trace: line %d: line of %s", d.line+1, broken)
			return false
		}
		switch {
		case k >= 0:
			c.from, c.i, c.end = 0, 0, n
			c.lex()
			return true
		case !more:
			return d.lastLine(0)
		}
	}
}

// lastLine takes what the window holds from start as the stream's last
// line, once the reader has stopped: it fails on a read error, is no
// line at all when empty, and is ended by the '\n' fill wrote past the
// window's bytes.
func (d *Decoder) lastLine(start int) bool {
	c := &d.cur
	switch {
	case d.src.err != io.EOF:
		if d.err == nil {
			d.err = fmt.Errorf("trace: line %d: read: %w", d.line+1, d.src.err)
		}
		return false
	case start == c.n:
		return false
	}
	c.n++
	c.from, c.i, c.end = start, start, c.n
	c.lex()
	return true
}

// fill reads the stream into the window until it holds want bytes, the
// stream ends or a read fails, growing the window to hold them, and
// writes a '\n' past the bytes read.
func (d *Decoder) fill(want int) {
	c := &d.cur
	if want+wordSlack > len(c.b) {
		b := make([]byte, max(2*len(c.b), want+wordSlack))
		copy(b, c.b[:c.n])
		c.b = b
	}
	c.n += d.src.fill(c.b[c.n:len(c.b)-wordSlack], want-c.n)
	c.b[c.n] = '\n'
}

// breaksLineRule says how a line of n bytes and the given fields breaks
// the line rule, or "" if it keeps it.
func (d *Decoder) breaksLineRule(n, fields int) string {
	switch {
	case fields > maxLineFields:
		return fmt.Sprintf("more than %d fields (a co order holds at most %d writes)", maxLineFields, maxCount)
	case n <= shortLineLen:
		return ""
	case !d.headerOK:
		return fmt.Sprintf("more than %d bytes before the header", shortLineLen)
	case n > bytesPerField*fields:
		return fmt.Sprintf("%d bytes exceeds %d with more than %d bytes a field (fields: %d)", n, shortLineLen, bytesPerField, fields)
	}
	return ""
}

// text is the line being parsed as its errors quote it: comment cut
// off, white space trimmed.
func (d *Decoder) text() []byte {
	b := d.cur.b[d.cur.from:d.cur.end]
	if i := bytes.IndexByte(b, '#'); i >= 0 {
		b = b[:i]
	}
	return bytes.TrimSpace(b)
}

// A cursor walks a line of the decoder's window once, recording where
// its tokens lie: the runs of bytes between white space, as
// strings.Fields splits them, up to the first '#', which opens a comment
// running to the line's '\n'. The window b holds n bytes read, then a
// '\n', then room for a word read from that '\n'; the line being
// walked is b[from:end].
type cursor struct {
	b               []byte
	n, from, i, end int
	// tok holds where the ntok tokens lex read last lie.
	ntok int
	tok  [8][2]int
}

// wordSlack is the room a window keeps past the bytes it holds: a '\n',
// and seven bytes more for a word read from that '\n'.
const wordSlack = 8

// lex reads the line's next tokens from i, as many as tok holds, and
// returns how many it read: none at the line's end or comment. It stops
// at the line's '\n', and sets end past it. A token's end is looked for
// eight bytes at a time; a multi-byte rune is decoded, and separates
// tokens when unicode.IsSpace reports it.
func (c *cursor) lex() int {
	b, i, n := c.b, c.i, 0
tokens:
	for n < len(c.tok) {
		switch byteClass[b[i]] {
		case spaceByte:
			i++
			continue
		case newlineByte:
			c.end = i + 1
			break tokens
		case hashByte:
			break tokens
		case runeByte:
			if space, size := runeSpaceAt(b[i:]); space {
				i += size
				continue
			}
		}
		start := i
		for {
			x := binary.LittleEndian.Uint64(b[i : i+8])
			m := stops(x)
			if m == 0 {
				i += 8
				continue
			}
			z := bits.TrailingZeros64(m) &^ 7 // the stop byte's shift in x
			i += z / 8
			if k := byteClass[byte(x>>z)]; k == tokenByte { // an ASCII control byte
				i++
			} else if k != runeByte {
				break
			} else if space, size := runeSpaceAt(b[i:]); !space {
				i += size
			} else {
				break
			}
		}
		c.tok[n] = [2]int{start, i}
		n++
	}
	c.i, c.ntok = i, n
	return n
}

// token returns token k of those lex read last.
func (c *cursor) token(k int) []byte { return c.b[c.tok[k][0]:c.tok[k][1]] }

// args counts the operands that follow the line's directive, lexing the
// rest of the line when tok is full, and returns the line's last token.
// arg hands out the operands while tok holds the whole line.
func (c *cursor) args() (n int, last []byte) {
	n, last = c.ntok-1, c.token(c.ntok-1)
	for c.ntok == len(c.tok) && c.lex() > 0 {
		n, last = n+c.ntok, c.token(c.ntok-1)
	}
	return n, last
}

// arg returns operand k: token k+1, the directive being token 0.
func (c *cursor) arg(k int) []byte { return c.token(k + 1) }

// stops marks, in the top bit of each byte of the word x, the bytes that
// may end a token: those below '!' (ASCII white space and control
// bytes), '#', and those of multi-byte runes (0x80 and up). The lowest
// mark is exact; a borrow may add marks above it.
func stops(x uint64) uint64 {
	const ones, tops = 0x0101010101010101, 0x8080808080808080
	h := x ^ ones*'#'
	return ((x-ones*'!')&^x | (h-ones)&^h | x) & tops
}

// The classes of a line's bytes. An ASCII byte's is looked up; a byte
// of runeByte opens a multi-byte rune or is invalid UTF-8, and the rune
// it opens is decoded.
const (
	tokenByte uint8 = iota
	spaceByte
	newlineByte
	hashByte
	runeByte
)

var byteClass = func() (c [256]uint8) {
	for _, b := range "\t\v\f\r " {
		c[b] = spaceByte
	}
	c['\n'] = newlineByte
	c['#'] = hashByte
	for b := utf8.RuneSelf; b < len(c); b++ {
		c[b] = runeByte
	}
	return c
}()

// runeSpaceAt reports whether b opens with a multi-byte rune that
// unicode.IsSpace reports — invalid UTF-8 is not white space — and the
// width of that rune.
func runeSpaceAt(b []byte) (bool, int) {
	r, size := utf8.DecodeRune(b)
	return unicode.IsSpace(r), size
}

// Next decodes and returns the next trace, or io.EOF after the last
// one. The first call validates the stream header.
func (d *Decoder) Next() (*Trace, error) {
	if d.err != nil {
		return nil, d.err
	}
	if !d.headerOK {
		tok, ok := d.next()
		if !ok {
			if d.err != nil {
				return nil, d.err
			}
			return nil, io.EOF
		}
		if n, _ := d.cur.args(); n != 1 || string(tok) != "mctrace" {
			return nil, d.errf("expected header %q, got %q", TextHeader, d.text())
		}
		v, err := strconv.Atoi(string(d.cur.arg(0)))
		if err != nil || v < 1 {
			return nil, d.errf("malformed trace format version %q", d.cur.arg(0))
		}
		if v != FormatVersion {
			return nil, d.errf("unsupported trace format version %d (decoder speaks %d)", v, FormatVersion)
		}
		d.headerOK = true
	}

	tok, ok := d.next()
	if !ok {
		if d.err != nil {
			return nil, d.err
		}
		return nil, io.EOF
	}
	t := &Trace{}
	d.threads, d.ops, d.rf, d.co, d.coRefs = d.threads[:0], d.ops[:0], d.rf[:0], d.co[:0], d.coRefs[:0]
	switch string(tok) {
	case "trace":
		switch n, _ := d.cur.args(); n {
		case 0:
		case 1:
			name := d.cur.arg(0)
			if len(name) > maxNameLen {
				return nil, d.errf("trace name length %d exceeds limit %d", len(name), maxNameLen)
			}
			t.Name = string(name)
		default:
			return nil, d.errf("trace takes at most one name token, got %q", d.text())
		}
	case "thread":
		// A trace may start implicitly at its first thread.
		if err := d.thread(); err != nil {
			return nil, err
		}
	default:
		return nil, d.errf("expected 'trace' or 'thread', got %q", tok)
	}

	for {
		tok, ok := d.next()
		if !ok {
			if d.err != nil {
				return nil, d.err
			}
			return nil, d.errf("unexpected end of stream: trace %s not closed with 'end'", t.label())
		}
		switch string(tok) {
		case "end":
			if n, _ := d.cur.args(); n != 0 {
				return nil, d.errf("'end' takes no arguments, got %q", d.text())
			}
			d.finish(t)
			return t, nil
		case "thread":
			if err := d.thread(); err != nil {
				return nil, err
			}
		case "r", "w", "f", "u":
			if len(d.threads) == 0 {
				return nil, d.errf("op %q before any 'thread' line", d.text())
			}
			d.ops = append(d.ops, Op{})
			if err := d.op(tok, &d.ops[len(d.ops)-1]); err != nil {
				return nil, err
			}
			if len(d.ops) > maxCount {
				return nil, d.errf("thread %d has more than %d ops", d.threads[len(d.threads)-1].TID, maxCount)
			}
		case "rf":
			edge, err := d.rfEdge()
			if err != nil {
				return nil, err
			}
			if len(d.rf) == maxCount {
				return nil, d.errf("more than %d rf edges", maxCount)
			}
			d.rf = append(d.rf, edge)
		case "co":
			if err := d.coOrder(); err != nil {
				return nil, err
			}
		case "trace":
			return nil, d.errf("trace %s not closed with 'end' before the next 'trace'", t.label())
		default:
			return nil, d.errf("unknown directive %q", tok)
		}
	}
}

// closeThread hands the open thread, if any, its ops.
func (d *Decoder) closeThread() {
	if len(d.threads) > 0 {
		d.threads[len(d.threads)-1].Ops = exact(d.ops)
		d.ops = d.ops[:0]
	}
}

// finish copies the trace gathered in the decoder's storage into t, each
// list in a slice of its exact size and every co order's writes in one.
func (d *Decoder) finish(t *Trace) {
	d.closeThread()
	t.Threads = exact(d.threads)
	clear(d.threads) // drop the handed-out Ops
	t.RF = exact(d.rf)
	if len(d.co) == 0 {
		return
	}
	refs := exact(d.coRefs)
	t.CO = make([]COOrder, len(d.co))
	start := 0
	for i, c := range d.co {
		t.CO[i] = COOrder{Addr: c.addr, Writes: refs[start:c.end:c.end]}
		start = c.end
	}
}

// exact returns a copy of s in a slice of its length, nil when empty.
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	t := make([]T, len(s))
	copy(t, s) // make then copy skips zeroing t
	return t
}

// thread parses the rest of a thread line and opens the thread.
func (d *Decoder) thread() error {
	if n, _ := d.cur.args(); n != 1 {
		return d.errf("'thread' takes exactly one TID, got %d tokens", n)
	}
	tok := d.cur.arg(0)
	tid, ok := smallDecimal(tok)
	if !ok {
		var err error
		if tid, err = strconv.Atoi(string(tok)); err != nil {
			return d.errf("malformed thread id %q: %v", tok, err)
		}
	}
	if tid < 0 {
		return d.errf("thread id %d is negative (TID -1 is reserved for initial writes)", tid)
	}
	if tid >= maxIntField {
		return d.errf("thread id %d out of range (limit %d)", tid, maxIntField)
	}
	if len(d.threads) == maxCount {
		return d.errf("more than %d threads", maxCount)
	}
	d.closeThread()
	d.threads = append(d.threads, Thread{TID: int32(tid)})
	return nil
}

// op parses the rest of an r/w/f/u line into op, which is zero.
func (d *Decoder) op(kind []byte, op *Op) error {
	c := &d.cur
	n, last := c.args()
	// Peel the trailing key pin, if present.
	if n > 0 && last[0] == '@' {
		instr, sub, err := parseKeyPin(last)
		if err != nil {
			return d.errf("%v", err)
		}
		op.Keyed, op.Instr, op.Sub = true, instr, sub
		n--
	}
	switch kind[0] {
	case 'r', 'w':
		op.Kind = OpRead
		if kind[0] == 'w' {
			op.Kind = OpWrite
		}
		if n == 3 && string(c.arg(2)) == "a" {
			op.Atomic = true
			n = 2
		}
		if n != 2 {
			return d.errf("'%s' takes <addr> <val> [a], got %d args", kind, n)
		}
		addr, err := parseAddr(c.arg(0))
		if err != nil {
			return d.errf("%v", err)
		}
		val, err := parseUint(c.arg(1))
		if err != nil {
			return d.errf("malformed value %q: %v", c.arg(1), err)
		}
		op.Addr, op.Value = addr, val
	case 'f':
		if n != 1 {
			return d.errf("'f' takes one fence kind, got %d args", n)
		}
		op.Kind = OpFence
		switch string(c.arg(0)) {
		case "full":
			op.Fence = memmodel.FenceFull
		case "ss":
			op.Fence = memmodel.FenceSS
		case "ll":
			op.Fence = memmodel.FenceLL
		default:
			return d.errf("unknown fence kind %q (want full, ss, or ll)", c.arg(0))
		}
	case 'u':
		if n != 3 {
			return d.errf("'u' takes <addr> <rval> <wval>, got %d args", n)
		}
		op.Kind = OpRMW
		addr, err := parseAddr(c.arg(0))
		if err != nil {
			return d.errf("%v", err)
		}
		rv, err := parseUint(c.arg(1))
		if err != nil {
			return d.errf("malformed read value %q: %v", c.arg(1), err)
		}
		wv, err := parseUint(c.arg(2))
		if err != nil {
			return d.errf("malformed write value %q: %v", c.arg(2), err)
		}
		op.Addr, op.Value, op.Value2 = addr, rv, wv
		if op.Keyed && op.Sub != 0 {
			return d.errf("'u' key pin takes no sub (the pair is always subs 0 and 1)")
		}
	}
	return nil
}

// rfEdge parses the rest of an rf line.
func (d *Decoder) rfEdge() (RFEdge, error) {
	var e RFEdge
	c := &d.cur
	if n, _ := c.args(); n != 2 {
		return e, d.errf("'rf' takes <read-ref> <write-ref>|init, got %d args", n)
	}
	read, err := parseRef(c.arg(0))
	if err != nil {
		return e, d.errf("%v", err)
	}
	e.Read = read
	if string(c.arg(1)) == "init" {
		e.Init = true
		return e, nil
	}
	w, err := parseRef(c.arg(1))
	if err != nil {
		return e, d.errf("%v", err)
	}
	e.Write = w
	return e, nil
}

// coOrder parses the rest of a co line into the decoder's co storage.
func (d *Decoder) coOrder() error {
	c := &d.cur
	if c.ntok < 3 {
		return d.errf("'co' takes <addr> and at least one write ref")
	}
	addr, err := parseAddr(c.arg(0))
	if err != nil {
		return d.errf("%v", err)
	}
	for k := 2; ; k = 0 {
		for ; k < c.ntok; k++ {
			ref, err := parseRef(c.token(k))
			if err != nil {
				return d.errf("%v", err)
			}
			d.coRefs = append(d.coRefs, ref)
		}
		if c.ntok < len(c.tok) || c.lex() == 0 {
			break
		}
	}
	if len(d.co) == maxCount {
		return d.errf("more than %d co orders", maxCount)
	}
	d.co = append(d.co, coSpan{addr: addr, end: len(d.coRefs)})
	return nil
}

func parseAddr(b []byte) (memsys.Addr, error) {
	v, err := parseUint(b)
	if err != nil {
		return 0, fmt.Errorf("malformed address %q: %v", b, err)
	}
	return memsys.Addr(v), nil
}

// parseUint parses b as strconv.ParseUint(b, 0, 64) does. The canonical
// spellings — decimal of at most 19 digits without a leading zero, and
// 0x or 0X with at most 16 hex digits — are read in place; every other
// spelling, and every error, is strconv's.
func parseUint(b []byte) (uint64, error) {
	var v uint64
	switch {
	case len(b) > 2 && b[0] == '0' && b[1]|0x20 == 'x' && len(b) <= 18:
		var bad byte
		for _, c := range b[2:] {
			v = v<<4 | uint64(hexDigit[c]&0xf)
			bad |= hexDigit[c]
		}
		if bad < 0x10 {
			return v, nil
		}
	case len(b) > 0 && len(b) <= 19 && (b[0] != '0' || len(b) == 1):
		for _, c := range b {
			if c-'0' >= 10 {
				return strconv.ParseUint(string(b), 0, 64)
			}
			v = v*10 + uint64(c-'0')
		}
		return v, nil
	}
	return strconv.ParseUint(string(b), 0, 64)
}

// hexDigit is the value of each hex digit, in either case, and 0xff
// for every other byte.
var hexDigit = func() (h [256]byte) {
	for c := range h {
		switch {
		case c >= '0' && c <= '9':
			h[c] = byte(c - '0')
		case c|0x20 >= 'a' && c|0x20 <= 'f':
			h[c] = byte(c | 0x20 - 'a' + 10)
		default:
			h[c] = 0xff
		}
	}
	return h
}()

// smallDecimal reads b if it is 1 to 9 decimal digits, the spellings of
// an int-typed field that cannot reach maxIntField.
func smallDecimal(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	v := 0
	for _, c := range b {
		if c-'0' >= 10 {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return v, true
}

// parseIntField parses a non-negative int-typed field (tid, instr, sub)
// as strconv.Atoi does, under the ceiling the binary format puts on the
// same fields, and narrows it to the field's int32 once it is below it.
func parseIntField(b []byte) (int32, bool) {
	v, ok := smallDecimal(b)
	if !ok {
		var err error
		v, err = strconv.Atoi(string(b))
		if err != nil || v < 0 || v >= maxIntField {
			return 0, false
		}
	}
	return int32(v), true
}

// leadField parses the int-typed field that opens b and runs to b's
// first sep byte, or to its end, and returns what follows that byte;
// found reports whether there was one. The field's digits are read as
// the sep byte is looked for, and any spelling but 1 to 9 digits goes
// to parseIntField.
func leadField(b []byte, sep byte) (v int32, rest []byte, found, ok bool) {
	i, x := 0, 0
	for ; i < len(b) && b[i]-'0' < 10; i++ {
		x = x*10 + int(b[i]-'0')
	}
	end := i
	for end < len(b) && b[end] != sep {
		end++
	}
	if end < len(b) {
		rest, found = b[end+1:], true
	}
	if i == end && i > 0 && i <= 9 {
		return int32(x), rest, found, true
	}
	v, ok = parseIntField(b[:end])
	return v, rest, found, ok
}

// parseKeyPin parses "@i" or "@i.s".
func parseKeyPin(b []byte) (instr, sub int32, err error) {
	instr, ss, dotted, ok := leadField(b[1:], '.')
	if ok && dotted {
		sub, ok = parseIntField(ss)
	}
	if !ok {
		return 0, 0, fmt.Errorf("malformed or out-of-range key pin %q", b)
	}
	return instr, sub, nil
}

// parseRef parses "tid:instr" or "tid:instr.sub".
func parseRef(b []byte) (Ref, error) {
	var r Ref
	tid, rest, colon, ok := leadField(b, ':')
	if !colon {
		return r, fmt.Errorf("malformed event ref %q (want tid:instr[.sub])", b)
	}
	if r.TID = tid; !ok {
		return r, fmt.Errorf("malformed or out-of-range event ref %q (bad tid)", b)
	}
	instr, ss, dotted, ok := leadField(rest, '.')
	if r.Instr = instr; !ok {
		return r, fmt.Errorf("malformed or out-of-range event ref %q (bad instr)", b)
	}
	if dotted {
		if r.Sub, ok = parseIntField(ss); !ok {
			return r, fmt.Errorf("malformed or out-of-range event ref %q (bad sub)", b)
		}
	}
	return r, nil
}
