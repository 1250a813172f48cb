package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
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
// Addresses and values accept any base strconv.ParseUint base-0 does
// (0x..., 0o..., decimal); the canonical encoder writes addresses in
// hex and values in decimal. "a" marks a manually-paired RMW half;
// "@i[.s]" pins the event key when it differs from the positional
// default (running instruction index, sub 0).

// WriteText encodes traces canonically to w, header first.
func WriteText(w io.Writer, traces ...*Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, TextHeader)
	for _, t := range traces {
		writeTextTrace(bw, t)
	}
	return bw.Flush()
}

func writeTextTrace(bw *bufio.Writer, t *Trace) {
	if t.Name != "" {
		fmt.Fprintf(bw, "trace %s\n", t.Name)
	} else {
		fmt.Fprintln(bw, "trace")
	}
	for _, th := range t.Threads {
		fmt.Fprintf(bw, "thread %d\n", th.TID)
		for i := range th.Ops {
			op := &th.Ops[i]
			switch op.Kind {
			case OpRead, OpWrite:
				fmt.Fprintf(bw, "%s 0x%x %d", op.Kind, uint64(op.Addr), op.Value)
				if op.Atomic {
					bw.WriteString(" a")
				}
			case OpFence:
				fmt.Fprintf(bw, "f %s", op.Fence)
			case OpRMW:
				fmt.Fprintf(bw, "u 0x%x %d %d", uint64(op.Addr), op.Value, op.Value2)
			}
			if op.Keyed {
				if op.Sub != 0 && op.Kind != OpRMW {
					fmt.Fprintf(bw, " @%d.%d", op.Instr, op.Sub)
				} else {
					fmt.Fprintf(bw, " @%d", op.Instr)
				}
			}
			bw.WriteByte('\n')
		}
	}
	for _, e := range t.RF {
		if e.Init {
			fmt.Fprintf(bw, "rf %s init\n", e.Read)
		} else {
			fmt.Fprintf(bw, "rf %s %s\n", e.Read, e.Write)
		}
	}
	for _, c := range t.CO {
		fmt.Fprintf(bw, "co 0x%x", uint64(c.Addr))
		for _, w := range c.Writes {
			fmt.Fprintf(bw, " %s", w)
		}
		bw.WriteByte('\n')
	}
	fmt.Fprintln(bw, "end")
}

// Decoder streams traces out of a text stream, validating the header
// on the first read. Errors carry the 1-based line number they were
// detected on.
type Decoder struct {
	sc       *bufio.Scanner
	line     int
	headerOK bool
	err      error
	// f holds the fields of the line being parsed, in storage reused from
	// line to line.
	f []string
}

// NewDecoder returns a streaming text decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	return &Decoder{sc: sc}
}

func (d *Decoder) errf(format string, args ...any) error {
	if d.err == nil {
		d.err = fmt.Errorf("trace: line %d: "+format, append([]any{d.line}, args...)...)
	}
	return d.err
}

// next returns the next meaningful line (comments stripped, blanks
// skipped), or ok=false at end of stream.
func (d *Decoder) next() (string, bool) {
	for d.sc.Scan() {
		d.line++
		s := d.sc.Text()
		if i := strings.IndexByte(s, '#'); i >= 0 {
			s = s[:i]
		}
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		return s, true
	}
	if err := d.sc.Err(); err != nil && d.err == nil {
		d.err = fmt.Errorf("trace: read: %w", err)
	}
	return "", false
}

// fields splits a line around runs of white space, as strings.Fields
// does, into the decoder's field buffer: the result is only good until
// the next call.
func (d *Decoder) fields(line string) []string {
	d.f = d.f[:0]
	start := -1
	for i := 0; i < len(line); {
		c, size := line[i], 1
		space := c == ' ' || c-'\t' < 5 // \t \n \v \f \r
		if c >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRuneInString(line[i:])
			space = unicode.IsSpace(r)
		}
		if !space {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			d.f = append(d.f, line[start:i])
			start = -1
		}
		i += size
	}
	if start >= 0 {
		d.f = append(d.f, line[start:])
	}
	return d.f
}

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
		if len(f) != 2 || f[0] != "mctrace" {
			return nil, d.errf("expected header %q, got %q", TextHeader, line)
		}
		v, err := strconv.Atoi(f[1])
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
	f := d.fields(line)
	switch f[0] {
	case "trace":
		if len(f) > 2 {
			return nil, d.errf("trace takes at most one name token, got %q", line)
		}
		if len(f) == 2 {
			if len(f[1]) > maxNameLen {
				return nil, d.errf("trace name length %d exceeds limit %d", len(f[1]), maxNameLen)
			}
			t.Name = f[1]
		}
	case "thread":
		// A trace may start implicitly at its first thread.
		if err := d.thread(t, f); err != nil {
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
		switch f[0] {
		case "end":
			if len(f) != 1 {
				return nil, d.errf("'end' takes no arguments, got %q", line)
			}
			return t, nil
		case "thread":
			if err := d.thread(t, f); err != nil {
				return nil, err
			}
		case "r", "w", "f", "u":
			if len(t.Threads) == 0 {
				return nil, d.errf("op %q before any 'thread' line", line)
			}
			op, err := d.op(f)
			if err != nil {
				return nil, err
			}
			th := &t.Threads[len(t.Threads)-1]
			if len(th.Ops) == maxCount {
				return nil, d.errf("thread %d has more than %d ops", th.TID, maxCount)
			}
			th.Ops = append(th.Ops, op)
		case "rf":
			edge, err := d.rf(f)
			if err != nil {
				return nil, err
			}
			if len(t.RF) == maxCount {
				return nil, d.errf("more than %d rf edges", maxCount)
			}
			t.RF = append(t.RF, edge)
		case "co":
			c, err := d.co(f)
			if err != nil {
				return nil, err
			}
			if len(t.CO) == maxCount {
				return nil, d.errf("more than %d co orders", maxCount)
			}
			t.CO = append(t.CO, c)
		case "trace":
			return nil, d.errf("trace %s not closed with 'end' before the next 'trace'", t.label())
		default:
			return nil, d.errf("unknown directive %q", f[0])
		}
	}
}

func (d *Decoder) thread(t *Trace, f []string) error {
	if len(f) != 2 {
		return d.errf("'thread' takes exactly one TID, got %d tokens", len(f)-1)
	}
	tid, err := strconv.Atoi(f[1])
	if err != nil {
		return d.errf("malformed thread id %q: %v", f[1], err)
	}
	if tid < 0 {
		return d.errf("thread id %d is negative (TID -1 is reserved for initial writes)", tid)
	}
	if tid >= maxIntField {
		return d.errf("thread id %d out of range (limit %d)", tid, maxIntField)
	}
	if len(t.Threads) == maxCount {
		return d.errf("more than %d threads", maxCount)
	}
	t.Threads = append(t.Threads, Thread{TID: tid})
	return nil
}

// op parses one r/w/f/u line into an Op.
func (d *Decoder) op(f []string) (Op, error) {
	var op Op
	args := f[1:]
	// Peel the trailing key pin, if present.
	if len(args) > 0 && strings.HasPrefix(args[len(args)-1], "@") {
		instr, sub, err := parseKeyPin(args[len(args)-1])
		if err != nil {
			return op, d.errf("%v", err)
		}
		op.Keyed, op.Instr, op.Sub = true, instr, sub
		args = args[:len(args)-1]
	}
	switch f[0] {
	case "r", "w":
		op.Kind = OpRead
		if f[0] == "w" {
			op.Kind = OpWrite
		}
		if len(args) == 3 && args[2] == "a" {
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
		val, err := strconv.ParseUint(args[1], 0, 64)
		if err != nil {
			return op, d.errf("malformed value %q: %v", args[1], err)
		}
		op.Addr, op.Value = addr, val
	case "f":
		if len(args) != 1 {
			return op, d.errf("'f' takes one fence kind, got %d args", len(args))
		}
		op.Kind = OpFence
		switch args[0] {
		case "full":
			op.Fence = memmodel.FenceFull
		case "ss":
			op.Fence = memmodel.FenceSS
		case "ll":
			op.Fence = memmodel.FenceLL
		default:
			return op, d.errf("unknown fence kind %q (want full, ss, or ll)", args[0])
		}
	case "u":
		if len(args) != 3 {
			return op, d.errf("'u' takes <addr> <rval> <wval>, got %d args", len(args))
		}
		op.Kind = OpRMW
		addr, err := parseAddr(args[0])
		if err != nil {
			return op, d.errf("%v", err)
		}
		rv, err := strconv.ParseUint(args[1], 0, 64)
		if err != nil {
			return op, d.errf("malformed read value %q: %v", args[1], err)
		}
		wv, err := strconv.ParseUint(args[2], 0, 64)
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

func (d *Decoder) rf(f []string) (RFEdge, error) {
	var e RFEdge
	if len(f) != 3 {
		return e, d.errf("'rf' takes <read-ref> <write-ref>|init, got %d args", len(f)-1)
	}
	read, err := parseRef(f[1])
	if err != nil {
		return e, d.errf("%v", err)
	}
	e.Read = read
	if f[2] == "init" {
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

func (d *Decoder) co(f []string) (COOrder, error) {
	var c COOrder
	if len(f) < 3 {
		return c, d.errf("'co' takes <addr> and at least one write ref")
	}
	addr, err := parseAddr(f[1])
	if err != nil {
		return c, d.errf("%v", err)
	}
	c.Addr = addr
	c.Writes = make([]Ref, 0, len(f)-2) // as many as the line has tokens
	for _, tok := range f[2:] {
		ref, err := parseRef(tok)
		if err != nil {
			return c, d.errf("%v", err)
		}
		c.Writes = append(c.Writes, ref)
	}
	return c, nil
}

func parseAddr(s string) (memsys.Addr, error) {
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("malformed address %q: %v", s, err)
	}
	return memsys.Addr(v), nil
}

// parseIntField parses a non-negative int-typed field (tid, instr, sub)
// under the ceiling the binary format puts on the same fields.
func parseIntField(s string) (int, bool) {
	v, err := strconv.Atoi(s)
	return v, err == nil && v >= 0 && v < maxIntField
}

// parseKeyPin parses "@i" or "@i.s".
func parseKeyPin(s string) (instr, sub int, err error) {
	body := strings.TrimPrefix(s, "@")
	is, ss, dotted := strings.Cut(body, ".")
	instr, ok := parseIntField(is)
	if ok && dotted {
		sub, ok = parseIntField(ss)
	}
	if !ok {
		return 0, 0, fmt.Errorf("malformed or out-of-range key pin %q", s)
	}
	return instr, sub, nil
}

// parseRef parses "tid:instr" or "tid:instr.sub".
func parseRef(s string) (Ref, error) {
	var r Ref
	ts, rest, ok := strings.Cut(s, ":")
	if !ok {
		return r, fmt.Errorf("malformed event ref %q (want tid:instr[.sub])", s)
	}
	if r.TID, ok = parseIntField(ts); !ok {
		return r, fmt.Errorf("malformed or out-of-range event ref %q (bad tid)", s)
	}
	is, ss, dotted := strings.Cut(rest, ".")
	if r.Instr, ok = parseIntField(is); !ok {
		return r, fmt.Errorf("malformed or out-of-range event ref %q (bad instr)", s)
	}
	if dotted {
		if r.Sub, ok = parseIntField(ss); !ok {
			return r, fmt.Errorf("malformed or out-of-range event ref %q (bad sub)", s)
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
