package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
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
// on the first read. Errors carry the 1-based line number they were
// detected on.
type Decoder struct {
	br       *bufio.Reader
	line     int
	headerOK bool
	err      error
	// long gathers a line longer than br's buffer.
	long []byte
	// f holds the fields of the line being parsed.
	f [][]byte
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
	return &Decoder{br: bufio.NewReaderSize(r, readBufSize)}
}

// The text format's line rule. A line that fits the decoder's read
// buffer is parsed where it lies; a longer one is gathered and held to
// the rule as its bytes arrive, so memory grows only with the fields a
// trace may hold. Any line may run to shortLineLen bytes. Past the
// header, a longer line is taken while it holds at most maxLineFields
// fields (a co line of maxCount writes) and averages at most
// bytesPerField bytes a field; a canonical ref takes at most 33.
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

// next returns the next meaningful line (comments cut off, white space
// trimmed, blanks skipped), or ok=false at end of stream or on a read
// error. The line is only good until the next call.
func (d *Decoder) next() ([]byte, bool) {
	for {
		b, err := d.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			b, err = d.longLine(b)
		}
		if err != nil && err != io.EOF {
			if d.err == nil {
				d.err = fmt.Errorf("trace: line %d: read: %w", d.line+1, err)
			}
			return nil, false
		}
		if len(b) == 0 {
			return nil, false
		}
		d.line++
		if i := bytes.IndexByte(b, '#'); i >= 0 {
			b = b[:i]
		}
		if b = bytes.TrimSpace(b); len(b) > 0 {
			return b, true
		}
	}
}

// longLine gathers a line that overflowed the read buffer, first holding
// b, into d.long, counting its fields as they arrive and failing it as
// soon as it breaks the line rule.
func (d *Decoder) longLine(b []byte) ([]byte, error) {
	d.long = append(d.long[:0], b...)
	fields, inField, scanned := 0, false, 0
	for err := bufio.ErrBufferFull; ; {
		// A rune cut by the chunk's end is counted once it is whole.
		for scanned < len(d.long) && (err != bufio.ErrBufferFull || utf8.FullRune(d.long[scanned:])) {
			space, size := asciiSpace[d.long[scanned]], 1
			if d.long[scanned] >= utf8.RuneSelf {
				space, size = runeSpaceAt(d.long[scanned:])
			}
			if !space && !inField {
				fields++
			}
			inField = !space
			scanned += size
		}
		if broken := d.breaksLineRule(len(d.long), fields); broken != "" {
			d.err = fmt.Errorf("trace: line %d: line of %s", d.line+1, broken)
			return nil, d.err
		}
		if err != bufio.ErrBufferFull {
			return d.long, err
		}
		b, err = d.br.ReadSlice('\n')
		d.long = append(d.long, b...)
	}
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

// fields splits a line around runs of white space, as strings.Fields
// does, into the decoder's field buffer: the result is only good until
// the next call. ASCII bytes are looked up in asciiSpace, and only a
// multi-byte rune is decoded.
func (d *Decoder) fields(line []byte) [][]byte {
	f := d.f[:0]
	start := -1
	for i := 0; i < len(line); {
		space, size := asciiSpace[line[i]], 1
		if line[i] >= utf8.RuneSelf {
			space, size = runeSpaceAt(line[i:])
		}
		if !space {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			f = append(f, line[start:i])
			start = -1
		}
		i += size
	}
	if start >= 0 {
		f = append(f, line[start:])
	}
	d.f = f
	return f
}

// runeSpaceAt reports whether b opens with a multi-byte rune that
// unicode.IsSpace reports — invalid UTF-8 is not white space — and the
// width of that rune.
func runeSpaceAt(b []byte) (bool, int) {
	r, size := utf8.DecodeRune(b)
	return unicode.IsSpace(r), size
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// Next decodes and returns the next trace, or io.EOF after the last
// one. The first call validates the stream header.
func (d *Decoder) Next() (*Trace, error) {
	if d.err != nil {
		return nil, d.err
	}
	if !d.headerOK {
		line, ok := d.next()
		if !ok {
			if d.err != nil {
				return nil, d.err
			}
			return nil, io.EOF
		}
		f := d.fields(line)
		if len(f) != 2 || string(f[0]) != "mctrace" {
			return nil, d.errf("expected header %q, got %q", TextHeader, line)
		}
		v, err := strconv.Atoi(string(f[1]))
		if err != nil || v < 1 {
			return nil, d.errf("malformed trace format version %q", f[1])
		}
		if v != FormatVersion {
			return nil, d.errf("unsupported trace format version %d (decoder speaks %d)", v, FormatVersion)
		}
		d.headerOK = true
	}

	line, ok := d.next()
	if !ok {
		if d.err != nil {
			return nil, d.err
		}
		return nil, io.EOF
	}
	t := &Trace{}
	d.threads, d.ops, d.rf, d.co, d.coRefs = d.threads[:0], d.ops[:0], d.rf[:0], d.co[:0], d.coRefs[:0]
	f := d.fields(line)
	switch string(f[0]) {
	case "trace":
		if len(f) > 2 {
			return nil, d.errf("trace takes at most one name token, got %q", line)
		}
		if len(f) == 2 {
			if len(f[1]) > maxNameLen {
				return nil, d.errf("trace name length %d exceeds limit %d", len(f[1]), maxNameLen)
			}
			t.Name = string(f[1])
		}
	case "thread":
		// A trace may start implicitly at its first thread.
		if err := d.thread(f); err != nil {
			return nil, err
		}
	default:
		return nil, d.errf("expected 'trace' or 'thread', got %q", f[0])
	}

	for {
		line, ok := d.next()
		if !ok {
			if d.err != nil {
				return nil, d.err
			}
			return nil, d.errf("unexpected end of stream: trace %s not closed with 'end'", t.label())
		}
		f := d.fields(line)
		switch string(f[0]) {
		case "end":
			if len(f) != 1 {
				return nil, d.errf("'end' takes no arguments, got %q", line)
			}
			d.finish(t)
			return t, nil
		case "thread":
			if err := d.thread(f); err != nil {
				return nil, err
			}
		case "r", "w", "f", "u":
			if len(d.threads) == 0 {
				return nil, d.errf("op %q before any 'thread' line", line)
			}
			op, err := d.op(f)
			if err != nil {
				return nil, err
			}
			if len(d.ops) == maxCount {
				return nil, d.errf("thread %d has more than %d ops", d.threads[len(d.threads)-1].TID, maxCount)
			}
			d.ops = append(d.ops, op)
		case "rf":
			edge, err := d.rfEdge(f)
			if err != nil {
				return nil, err
			}
			if len(d.rf) == maxCount {
				return nil, d.errf("more than %d rf edges", maxCount)
			}
			d.rf = append(d.rf, edge)
		case "co":
			if err := d.coOrder(f); err != nil {
				return nil, err
			}
		case "trace":
			return nil, d.errf("trace %s not closed with 'end' before the next 'trace'", t.label())
		default:
			return nil, d.errf("unknown directive %q", f[0])
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

func (d *Decoder) thread(f [][]byte) error {
	if len(f) != 2 {
		return d.errf("'thread' takes exactly one TID, got %d tokens", len(f)-1)
	}
	tid, ok := smallDecimal(f[1])
	if !ok {
		var err error
		if tid, err = strconv.Atoi(string(f[1])); err != nil {
			return d.errf("malformed thread id %q: %v", f[1], err)
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

// op parses one r/w/f/u line into an Op.
func (d *Decoder) op(f [][]byte) (Op, error) {
	var op Op
	args := f[1:]
	// Peel the trailing key pin, if present.
	if len(args) > 0 && args[len(args)-1][0] == '@' {
		instr, sub, err := parseKeyPin(args[len(args)-1])
		if err != nil {
			return op, d.errf("%v", err)
		}
		op.Keyed, op.Instr, op.Sub = true, instr, sub
		args = args[:len(args)-1]
	}
	switch f[0][0] {
	case 'r', 'w':
		op.Kind = OpRead
		if f[0][0] == 'w' {
			op.Kind = OpWrite
		}
		if len(args) == 3 && string(args[2]) == "a" {
			op.Atomic = true
			args = args[:2]
		}
		if len(args) != 2 {
			return op, d.errf("'%s' takes <addr> <val> [a], got %d args", f[0], len(args))
		}
		addr, err := parseAddr(args[0])
		if err != nil {
			return op, d.errf("%v", err)
		}
		val, err := parseUint(args[1])
		if err != nil {
			return op, d.errf("malformed value %q: %v", args[1], err)
		}
		op.Addr, op.Value = addr, val
	case 'f':
		if len(args) != 1 {
			return op, d.errf("'f' takes one fence kind, got %d args", len(args))
		}
		op.Kind = OpFence
		switch string(args[0]) {
		case "full":
			op.Fence = memmodel.FenceFull
		case "ss":
			op.Fence = memmodel.FenceSS
		case "ll":
			op.Fence = memmodel.FenceLL
		default:
			return op, d.errf("unknown fence kind %q (want full, ss, or ll)", args[0])
		}
	case 'u':
		if len(args) != 3 {
			return op, d.errf("'u' takes <addr> <rval> <wval>, got %d args", len(args))
		}
		op.Kind = OpRMW
		addr, err := parseAddr(args[0])
		if err != nil {
			return op, d.errf("%v", err)
		}
		rv, err := parseUint(args[1])
		if err != nil {
			return op, d.errf("malformed read value %q: %v", args[1], err)
		}
		wv, err := parseUint(args[2])
		if err != nil {
			return op, d.errf("malformed write value %q: %v", args[2], err)
		}
		op.Addr, op.Value, op.Value2 = addr, rv, wv
		if op.Keyed && op.Sub != 0 {
			return op, d.errf("'u' key pin takes no sub (the pair is always subs 0 and 1)")
		}
	}
	return op, nil
}

func (d *Decoder) rfEdge(f [][]byte) (RFEdge, error) {
	var e RFEdge
	if len(f) != 3 {
		return e, d.errf("'rf' takes <read-ref> <write-ref>|init, got %d args", len(f)-1)
	}
	read, err := parseRef(f[1])
	if err != nil {
		return e, d.errf("%v", err)
	}
	e.Read = read
	if string(f[2]) == "init" {
		e.Init = true
		return e, nil
	}
	w, err := parseRef(f[2])
	if err != nil {
		return e, d.errf("%v", err)
	}
	e.Write = w
	return e, nil
}

// coOrder parses one co line into the decoder's co storage.
func (d *Decoder) coOrder(f [][]byte) error {
	if len(f) < 3 {
		return d.errf("'co' takes <addr> and at least one write ref")
	}
	addr, err := parseAddr(f[1])
	if err != nil {
		return d.errf("%v", err)
	}
	for _, tok := range f[2:] {
		ref, err := parseRef(tok)
		if err != nil {
			return d.errf("%v", err)
		}
		d.coRefs = append(d.coRefs, ref)
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
		for _, c := range b[2:] {
			switch {
			case c-'0' < 10:
				v = v<<4 | uint64(c-'0')
			case c|0x20-'a' < 6:
				v = v<<4 | uint64(c|0x20-'a'+10)
			default:
				return strconv.ParseUint(string(b), 0, 64)
			}
		}
		return v, nil
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

// parseKeyPin parses "@i" or "@i.s".
func parseKeyPin(b []byte) (instr, sub int32, err error) {
	is, ss, dotted := bytes.Cut(b[1:], []byte{'.'})
	instr, ok := parseIntField(is)
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
	ts, rest, ok := bytes.Cut(b, []byte{':'})
	if !ok {
		return r, fmt.Errorf("malformed event ref %q (want tid:instr[.sub])", b)
	}
	if r.TID, ok = parseIntField(ts); !ok {
		return r, fmt.Errorf("malformed or out-of-range event ref %q (bad tid)", b)
	}
	is, ss, dotted := bytes.Cut(rest, []byte{'.'})
	if r.Instr, ok = parseIntField(is); !ok {
		return r, fmt.Errorf("malformed or out-of-range event ref %q (bad instr)", b)
	}
	if dotted {
		if r.Sub, ok = parseIntField(ss); !ok {
			return r, fmt.Errorf("malformed or out-of-range event ref %q (bad sub)", b)
		}
	}
	return r, nil
}

// DecodeAll reads every trace in the stream.
func DecodeAll(r io.Reader) ([]*Trace, error) {
	d := NewDecoder(r)
	var out []*Trace
	for {
		t, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}
