package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"repro/internal/memmodel"
	"repro/internal/memsys"
)

// BinaryMagic opens every binary trace stream, followed by a uvarint
// format version. The magic differs from both the text header and the
// verdict store's segment magic, so streams of the three kinds cannot
// be confused for one another.
const BinaryMagic = "MCVB"

// The binary framing carries the same model as the text format in
// uvarint-packed frames for high-volume replay dumps:
//
//	stream:  "MCVB" | uvarint version | frame*
//	frame:   uvarint len(name) | name |
//	         uvarint nthreads | thread* | uvarint nrf | rf* |
//	         uvarint nco | co*
//	thread:  uvarint tid | uvarint nops | op*
//	op:      flags byte (bits 0-1 kind, 2 atomic, 3 keyed) | body
//	         r/w: uvarint addr, uvarint value
//	         f:   fence byte
//	         u:   uvarint addr, uvarint value, uvarint value2
//	         keyed ops append uvarint instr, uvarint sub
//	rf:      ref(read) | init byte | ref(write) unless init
//	co:      uvarint addr | uvarint nwrites | ref*
//	ref:     uvarint tid | uvarint instr | uvarint sub
//
// All integers carried by traces are non-negative (negative TIDs are
// reserved for initial writes, which traces never reference), so plain
// uvarints suffice.

const (
	opFlagKindMask = 0b0011
	opFlagAtomic   = 0b0100
	opFlagKeyed    = 0b1000
)

// WriteBinary encodes traces to w in binary framing, magic first. A
// trace the formats cannot carry is refused before any of its bytes are
// written.
func WriteBinary(w io.Writer, traces ...*Trace) error {
	bw := bufio.NewWriter(w)
	buf := binary.AppendUvarint([]byte(BinaryMagic), FormatVersion)
	bw.Write(buf)
	for _, t := range traces {
		if err := t.encodable(); err != nil {
			return err
		}
		buf = appendBinaryTrace(buf[:0], t)
		bw.Write(buf)
	}
	return bw.Flush()
}

// appendBinaryTrace appends t's binary frame to buf; t is encodable.
func appendBinaryTrace(buf []byte, t *Trace) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t.Name)))
	buf = append(buf, t.Name...)
	buf = binary.AppendUvarint(buf, uint64(len(t.Threads)))
	for _, th := range t.Threads {
		buf = binary.AppendUvarint(buf, uint64(th.TID))
		buf = binary.AppendUvarint(buf, uint64(len(th.Ops)))
		for i := range th.Ops {
			op := &th.Ops[i]
			flags := byte(op.Kind)
			if op.Atomic {
				flags |= opFlagAtomic
			}
			if op.Keyed {
				flags |= opFlagKeyed
			}
			buf = append(buf, flags)
			switch op.Kind {
			case OpRead, OpWrite:
				buf = binary.AppendUvarint(buf, uint64(op.Addr))
				buf = binary.AppendUvarint(buf, op.Value)
			case OpFence:
				buf = append(buf, byte(op.Fence))
			case OpRMW:
				buf = binary.AppendUvarint(buf, uint64(op.Addr))
				buf = binary.AppendUvarint(buf, op.Value)
				buf = binary.AppendUvarint(buf, op.Value2)
			}
			if op.Keyed {
				buf = binary.AppendUvarint(buf, uint64(op.Instr))
				buf = binary.AppendUvarint(buf, uint64(op.Sub))
			}
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.RF)))
	for _, e := range t.RF {
		buf = appendBinaryRef(buf, e.Read)
		if e.Init {
			buf = append(buf, 1)
			continue
		}
		buf = appendBinaryRef(append(buf, 0), e.Write)
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.CO)))
	for _, c := range t.CO {
		buf = binary.AppendUvarint(buf, uint64(c.Addr))
		buf = binary.AppendUvarint(buf, uint64(len(c.Writes)))
		for _, w := range c.Writes {
			buf = appendBinaryRef(buf, w)
		}
	}
	return buf
}

func appendBinaryRef(buf []byte, r Ref) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.TID))
	buf = binary.AppendUvarint(buf, uint64(r.Instr))
	return binary.AppendUvarint(buf, uint64(r.Sub))
}

// BinaryDecoder streams traces out of a binary stream, validating the
// magic and version on the first read. It reads through a window of the
// stream that it owns and refills, and decodes each list of a trace
// straight into a slice of its exact size. Errors carry the 1-based
// index of the trace being decoded and the stream offset of the field
// they were detected at; a stream that ends inside a frame fails with
// io.ErrUnexpectedEOF.
type BinaryDecoder struct {
	r io.Reader
	// buf is the window: buf[pos:] is read from r but not yet decoded.
	// off is the stream offset of buf[0], rerr what r last returned
	// besides bytes (io.EOF at the end of the stream).
	buf  []byte
	pos  int
	off  int64
	rerr error
	// traces counts the traces decoded.
	traces   int
	headerOK bool
	err      error
}

// NewBinaryDecoder returns a streaming binary decoder reading from r.
func NewBinaryDecoder(r io.Reader) *BinaryDecoder {
	return &BinaryDecoder{r: r}
}

// limits keep a corrupt or adversarial length prefix from ballooning
// one frame into gigabytes of allocation. The text decoder enforces the
// same name, count and int-field ceilings, so every trace one format
// accepts survives re-encoding into the other.
const (
	maxNameLen = 1 << 16
	maxCount   = 1 << 24
	// maxBinaryFence is the largest fence byte the binary decoder
	// accepts: the last fence kind the text format names.
	maxBinaryFence = byte(memmodel.NumFenceKinds - 1)
	maxIntField    = 1 << 31 // int-typed fields (tid, instr, sub) and counts
	// maxPresize caps how many elements a decoder allocates on the word
	// of a count it has just read; a longer list grows as its elements
	// actually arrive, so a lying prefix costs at most this much.
	maxPresize = 1 << 10
	// binaryWindow is the size of a binary decoder's window; it grows
	// to hold a longer name whole.
	binaryWindow = 4 << 10
)

// sized returns the slice a list of n elements decodes into: of length
// n, when n is at most maxPresize, for the elements to be decoded in
// place; else empty with room for maxPresize, to grow as the elements
// arrive. An empty list is nil.
func sized[T any](n int) []T {
	switch {
	case n == 0:
		return nil
	case n <= maxPresize:
		return make([]T, n)
	}
	return make([]T, 0, maxPresize)
}

// offset is the stream offset of the next byte to decode.
func (d *BinaryDecoder) offset() int64 { return d.off + int64(d.pos) }

// failAt fails the stream at offset at, unless it has failed already.
func (d *BinaryDecoder) failAt(at int64, format string, args ...any) error {
	if d.err == nil {
		d.err = fmt.Errorf("trace: binary: trace %d, byte %d: "+format, append([]any{d.traces + 1, at}, args...)...)
	}
	return d.err
}

// short fails the field what, at offset at, that the end of the stream
// or a read error cut short.
func (d *BinaryDecoder) short(at int64, what string) error {
	if d.rerr == io.EOF {
		return d.failAt(at, "truncated %s: %w", what, io.ErrUnexpectedEOF)
	}
	return d.failAt(at, "reading %s: %w", what, d.rerr)
}

// fill refills the window until it holds n unread bytes, the stream
// ends or a read fails, and reports whether it holds them.
func (d *BinaryDecoder) fill(n int) bool {
	if len(d.buf)-d.pos >= n {
		return true
	}
	d.off += int64(d.pos)
	if cap(d.buf) < n {
		d.buf = append(make([]byte, 0, max(n, binaryWindow)), d.buf[d.pos:]...)
	} else {
		d.buf = d.buf[:copy(d.buf[:cap(d.buf)], d.buf[d.pos:])]
	}
	d.pos = 0
	for empty := 0; len(d.buf) < n && d.rerr == nil; {
		k, err := d.r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+k]
		switch {
		case err != nil:
			d.rerr = err
		case k > 0:
			empty = 0
		default:
			if empty++; empty == 100 { // as bufio gives up on a reader
				d.rerr = io.ErrNoProgress
			}
		}
	}
	return len(d.buf) >= n
}

// The window's fast paths read a field that lies whole in the window —
// a byte, a uvarint of one or two bytes, a ref of three one-byte
// uvarints — and report true, or read nothing and report false; the
// caller then reads the field through the slow path of the same name,
// which takes any field and refills the window. Making no call, they
// inline into the decoding loops.

func (d *BinaryDecoder) nextByte() (byte, bool) {
	if d.pos < len(d.buf) {
		d.pos++
		return d.buf[d.pos-1], true
	}
	return 0, false
}

func (d *BinaryDecoder) nextUvarint() (uint64, bool) {
	if p := d.pos; p+1 < len(d.buf) {
		b0, b1 := d.buf[p], d.buf[p+1]
		if b0 < 0x80 {
			d.pos = p + 1
			return uint64(b0), true
		}
		if b1 < 0x80 {
			d.pos = p + 2
			return uint64(b0&0x7f) | uint64(b1)<<7, true
		}
	}
	return 0, false
}

func (d *BinaryDecoder) nextRef() (Ref, bool) {
	if p := d.pos; p+3 <= len(d.buf) {
		if b := d.buf[p : p+3]; b[0]|b[1]|b[2] < 0x80 {
			d.pos = p + 3
			return Ref{TID: int(b[0]), Instr: int(b[1]), Sub: int(b[2])}, true
		}
	}
	return Ref{}, false
}

// byte reads one byte, what naming it in errors.
func (d *BinaryDecoder) byte(what string) byte {
	if d.pos == len(d.buf) && !d.fill(1) {
		d.short(d.offset(), what)
		return 0
	}
	d.pos++
	return d.buf[d.pos-1]
}

// uvarint reads a uvarint, refilling the window first if it may end
// inside it. The field is named what+part in errors, joined only when
// there is one.
func (d *BinaryDecoder) uvarint(what, part string) uint64 {
	if len(d.buf)-d.pos < binary.MaxVarintLen64 {
		d.fill(binary.MaxVarintLen64)
	}
	b := d.buf[d.pos:]
	if len(b) >= 8 {
		if v, n := uvarint8(b); n > 0 {
			d.pos += n
			return v
		}
	}
	v, n := binary.Uvarint(b)
	switch {
	case n > 0:
		d.pos += n
		return v
	case n == 0:
		d.short(d.offset(), what+part)
	default:
		d.failAt(d.offset(), "%s overflows 64 bits", what+part)
	}
	return 0
}

// uvarint8 decodes the uvarint b opens, as binary.Uvarint does, when it
// is at most eight bytes long, reading those eight bytes as one word; n
// is 0 for a longer one. The first byte with its top bit clear ends the
// uvarint; the bytes past it are masked off, and the three steps gather
// the 7-bit groups into pairs, fours and the eight.
func uvarint8(b []byte) (v uint64, n int) {
	x := binary.LittleEndian.Uint64(b)
	stop := ^x & 0x8080808080808080
	if stop == 0 {
		return 0, 0
	}
	end := bits.TrailingZeros64(stop) + 1
	x &= (1<<end - 1) & 0x7f7f7f7f7f7f7f7f
	x = x&0x007f007f007f007f | x&0x7f007f007f007f00>>1
	x = x&0x00003fff00003fff | x&0x3fff00003fff0000>>2
	x = x&0x000000000fffffff | x&0x0fffffff00000000>>4
	return x, end / 8
}

// int reads a uvarint bound for an int-typed field, which must be below
// maxIntField; what+part names it in errors.
func (d *BinaryDecoder) int(what, part string) int {
	at := d.offset()
	v := d.uvarint(what, part)
	if v >= maxIntField {
		d.failAt(at, "%s %d out of range", what+part, v)
		return 0
	}
	return int(v)
}

// count reads a list's element count, at most maxCount.
func (d *BinaryDecoder) count(what string) int {
	at := d.offset()
	n := d.int(what, "")
	if n > maxCount {
		d.failAt(at, "%s %d exceeds limit %d", what, n, maxCount)
		return 0
	}
	return n
}

// ref reads an event ref, what naming it in errors.
func (d *BinaryDecoder) ref(what string) Ref {
	return Ref{TID: d.int(what, " tid"), Instr: d.int(what, " instr"), Sub: d.int(what, " sub")}
}

// Next decodes and returns the next trace, or io.EOF after the last
// one.
func (d *BinaryDecoder) Next() (*Trace, error) {
	if d.err != nil {
		return nil, d.err
	}
	if !d.headerOK {
		if !d.fill(len(BinaryMagic)) {
			if len(d.buf) == 0 && d.rerr == io.EOF {
				return nil, io.EOF
			}
			return nil, d.short(0, "magic")
		}
		if magic := d.buf[:len(BinaryMagic)]; string(magic) != BinaryMagic {
			return nil, d.failAt(0, "bad magic %q (want %q)", magic, BinaryMagic)
		}
		d.pos = len(BinaryMagic)
		at := d.offset()
		v := d.uvarint("format version", "")
		if d.err != nil {
			return nil, d.err
		}
		if v != FormatVersion {
			return nil, d.failAt(at, "unsupported trace format version %d (decoder speaks %d)", v, FormatVersion)
		}
		d.headerOK = true
	}

	// Frame boundary: a clean end of stream here means the stream is done.
	if !d.fill(1) {
		if d.rerr == io.EOF {
			return nil, io.EOF
		}
		return nil, d.short(d.offset(), "name length")
	}
	t := d.frame()
	if d.err != nil {
		return nil, d.err
	}
	d.traces++
	return t, nil
}

// frame decodes one trace's frame; the trace is only good if it leaves
// d.err nil. Each list is decoded into the slice sized gives it, and
// every loop stops at the first error.
func (d *BinaryDecoder) frame() *Trace {
	t := &Trace{}
	at := d.offset()
	nameLen := d.uvarint("name length", "")
	if d.err != nil {
		return nil
	}
	if nameLen > maxNameLen {
		d.failAt(at, "name length %d exceeds limit %d", nameLen, maxNameLen)
		return nil
	}
	at = d.offset()
	if !d.fill(int(nameLen)) {
		d.short(at, "name")
		return nil
	}
	t.Name = string(d.buf[d.pos : d.pos+int(nameLen)])
	d.pos += int(nameLen)
	if why := nameProblem(t.Name); why != "" {
		d.failAt(at, "name %q %s", t.Name, why)
		return nil
	}

	writes := 0 // the w and u ops
	n := d.count("thread count")
	t.Threads = sized[Thread](n)
	for i := 0; i < n && d.err == nil; i++ {
		if i == len(t.Threads) {
			t.Threads = append(t.Threads, Thread{})
		}
		th := &t.Threads[i]
		th.TID = d.int("tid", "")
		nops := d.count("op count")
		th.Ops = sized[Op](nops)
		for j := 0; j < nops && d.err == nil; j++ {
			if j == len(th.Ops) {
				th.Ops = append(th.Ops, Op{})
			}
			d.op(&th.Ops[j])
			if k := th.Ops[j].Kind; k == OpWrite || k == OpRMW {
				writes++
			}
		}
	}
	if d.err != nil {
		return nil
	}

	n = d.count("rf count")
	t.RF = sized[RFEdge](n)
	for i := 0; i < n && d.err == nil; i++ {
		if i == len(t.RF) {
			t.RF = append(t.RF, RFEdge{})
		}
		e := &t.RF[i]
		var ok bool
		if e.Read, ok = d.nextRef(); !ok {
			e.Read = d.ref("rf read")
		}
		ib, ok := d.nextByte()
		if !ok {
			ib = d.byte("rf init flag")
		}
		switch ib {
		case 0:
			if e.Write, ok = d.nextRef(); !ok {
				e.Write = d.ref("rf write")
			}
		case 1:
			e.Init = true
		default:
			d.failAt(d.offset()-1, "rf init flag %d is not 0 or 1", ib)
		}
	}
	if d.err != nil {
		return nil
	}

	// A canonical trace's co orders list each of its writes once: all of
	// them go into one slice of that size, which grows if more arrive.
	n = d.count("co count")
	t.CO = sized[COOrder](n)
	var refs []Ref
	if n > 0 {
		refs = make([]Ref, 0, writes)
	}
	for i := 0; i < n && d.err == nil; i++ {
		if i == len(t.CO) {
			t.CO = append(t.CO, COOrder{})
		}
		c := &t.CO[i]
		addr, ok := d.nextUvarint()
		if !ok {
			addr = d.uvarint("co addr", "")
		}
		c.Addr = memsys.Addr(addr)
		at := d.offset()
		nw, ok := d.nextUvarint() // below 2¹⁴, so within maxCount
		if !ok {
			nw = uint64(d.count("co write count"))
		}
		if nw == 0 {
			d.failAt(at, "co order of %#x has no writes", addr)
		}
		start := len(refs)
		for j := uint64(0); j < nw && d.err == nil; j++ {
			r, ok := d.nextRef()
			if !ok {
				r = d.ref("co write")
			}
			refs = append(refs, r)
		}
		c.Writes = refs[start:len(refs):len(refs)]
	}
	if d.err != nil {
		return nil
	}
	return t
}

// op decodes one op into op, which is zero.
func (d *BinaryDecoder) op(op *Op) {
	flags, ok := d.nextByte()
	if !ok {
		flags = d.byte("op flags")
	}
	op.Kind = OpKind(flags & opFlagKindMask)
	op.Atomic = flags&opFlagAtomic != 0
	op.Keyed = flags&opFlagKeyed != 0
	switch {
	case flags&^(opFlagKindMask|opFlagAtomic|opFlagKeyed) != 0:
		d.failAt(d.offset()-1, "op flags %#x have unknown bits set", flags)
		return
	case op.Atomic && (op.Kind == OpFence || op.Kind == OpRMW):
		d.failAt(d.offset()-1, "op flags %#x mark %s op atomic (the formats carry the flag on r and w only)", flags, op.Kind)
		return
	}
	if op.Kind == OpFence {
		fb, ok := d.nextByte()
		if !ok {
			fb = d.byte("fence kind")
		}
		if fb > maxBinaryFence {
			d.failAt(d.offset()-1, "fence kind %d out of range (the formats carry full, ss and ll, 0 to %d)", fb, maxBinaryFence)
		}
		op.Fence = memmodel.FenceKind(fb)
	} else {
		addr, ok := d.nextUvarint()
		if !ok {
			addr = d.uvarint("op addr", "")
		}
		op.Addr = memsys.Addr(addr)
		if op.Value, ok = d.nextUvarint(); !ok {
			op.Value = d.uvarint("op value", "")
		}
		if op.Kind == OpRMW {
			if op.Value2, ok = d.nextUvarint(); !ok {
				op.Value2 = d.uvarint("op write value", "")
			}
		}
	}
	if op.Keyed {
		op.Instr = d.int("op key instr", "")
		at := d.offset()
		if op.Sub = d.int("op key sub", ""); op.Sub != 0 && op.Kind == OpRMW {
			d.failAt(at, "op key sub %d on a u op (the pair is always subs 0 and 1)", op.Sub)
		}
	}
}

// DecodeAllBinary reads every trace in the binary stream.
func DecodeAllBinary(r io.Reader) ([]*Trace, error) {
	d := NewBinaryDecoder(r)
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
