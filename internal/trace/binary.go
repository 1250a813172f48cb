package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/memmodel"
	"repro/internal/memsys"
)

func memAddrFromU64(v uint64) memsys.Addr     { return memsys.Addr(v) }
func fenceFromByte(b byte) memmodel.FenceKind { return memmodel.FenceKind(b) }

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

// WriteBinary encodes traces to w in binary framing, magic first.
func WriteBinary(w io.Writer, traces ...*Trace) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(BinaryMagic)
	writeUvarint(bw, FormatVersion)
	for _, t := range traces {
		if err := writeBinaryTrace(bw, t); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeUvarint(bw *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	bw.Write(buf[:n])
}

func writeRef(bw *bufio.Writer, r Ref) error {
	if r.TID < 0 || r.Instr < 0 || r.Sub < 0 {
		return fmt.Errorf("trace: binary encoding: negative ref %v", r)
	}
	writeUvarint(bw, uint64(r.TID))
	writeUvarint(bw, uint64(r.Instr))
	writeUvarint(bw, uint64(r.Sub))
	return nil
}

func writeBinaryTrace(bw *bufio.Writer, t *Trace) error {
	writeUvarint(bw, uint64(len(t.Name)))
	bw.WriteString(t.Name)
	writeUvarint(bw, uint64(len(t.Threads)))
	for _, th := range t.Threads {
		if th.TID < 0 {
			return fmt.Errorf("trace: binary encoding: negative tid %d", th.TID)
		}
		writeUvarint(bw, uint64(th.TID))
		writeUvarint(bw, uint64(len(th.Ops)))
		for i := range th.Ops {
			op := &th.Ops[i]
			flags := byte(op.Kind) & opFlagKindMask
			if op.Atomic {
				flags |= opFlagAtomic
			}
			if op.Keyed {
				flags |= opFlagKeyed
			}
			bw.WriteByte(flags)
			switch op.Kind {
			case OpRead, OpWrite:
				writeUvarint(bw, uint64(op.Addr))
				writeUvarint(bw, op.Value)
			case OpFence:
				bw.WriteByte(byte(op.Fence))
			case OpRMW:
				writeUvarint(bw, uint64(op.Addr))
				writeUvarint(bw, op.Value)
				writeUvarint(bw, op.Value2)
			default:
				return fmt.Errorf("trace: binary encoding: unknown op kind %d", op.Kind)
			}
			if op.Keyed {
				if op.Instr < 0 || op.Sub < 0 {
					return fmt.Errorf("trace: binary encoding: negative key pin @%d.%d", op.Instr, op.Sub)
				}
				writeUvarint(bw, uint64(op.Instr))
				writeUvarint(bw, uint64(op.Sub))
			}
		}
	}
	writeUvarint(bw, uint64(len(t.RF)))
	for _, e := range t.RF {
		if err := writeRef(bw, e.Read); err != nil {
			return err
		}
		if e.Init {
			bw.WriteByte(1)
			continue
		}
		bw.WriteByte(0)
		if err := writeRef(bw, e.Write); err != nil {
			return err
		}
	}
	writeUvarint(bw, uint64(len(t.CO)))
	for _, c := range t.CO {
		writeUvarint(bw, uint64(c.Addr))
		writeUvarint(bw, uint64(len(c.Writes)))
		for _, w := range c.Writes {
			if err := writeRef(bw, w); err != nil {
				return err
			}
		}
	}
	return nil
}

// BinaryDecoder streams traces out of a binary stream, validating the
// magic and version on the first read.
type BinaryDecoder struct {
	br       *bufio.Reader
	headerOK bool
	err      error
}

// NewBinaryDecoder returns a streaming binary decoder reading from r.
func NewBinaryDecoder(r io.Reader) *BinaryDecoder {
	return &BinaryDecoder{br: bufio.NewReader(r)}
}

// limits keep a corrupt or adversarial length prefix from ballooning
// one frame into gigabytes of allocation. The text decoder enforces the
// same name, count and int-field ceilings, so every trace one format
// accepts survives re-encoding into the other.
const (
	maxNameLen     = 1 << 16
	maxCount       = 1 << 24
	maxBinaryFence = 0x7f
	maxIntField    = 1 << 31 // int-typed fields (tid, instr, sub) and counts
	// maxPresize caps how many elements a decoder allocates on the word
	// of a count it has just read; a longer list grows as its elements
	// actually arrive, so a lying prefix costs at most this much.
	maxPresize = 1 << 10
)

// presized returns an empty slice with room for n elements, or for
// maxPresize if n is larger; an empty list stays nil, as appending
// nothing would have left it.
func presized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, min(n, maxPresize))
}

func (d *BinaryDecoder) fail(err error) error {
	if d.err == nil {
		d.err = err
	}
	return d.err
}

func (d *BinaryDecoder) failf(format string, args ...any) error {
	return d.fail(fmt.Errorf("trace: binary: "+format, args...))
}

func (d *BinaryDecoder) uvarint(what string) (uint64, error) {
	v, err := binary.ReadUvarint(d.br)
	if err != nil {
		return 0, d.failf("truncated %s: %v", what, err)
	}
	return v, nil
}

// uint reads a uvarint destined for an int-typed field, bounding it. The
// field is named what+part in errors; the two are only joined when there
// is an error to name it in.
func (d *BinaryDecoder) uint(what, part string) (int, error) {
	v, err := binary.ReadUvarint(d.br)
	if err != nil {
		return 0, d.failf("truncated %s: %v", what+part, err)
	}
	if v >= maxIntField {
		return 0, d.failf("%s %d out of range", what+part, v)
	}
	return int(v), nil
}

func (d *BinaryDecoder) count(what string) (int, error) {
	n, err := d.uint(what, "")
	if err != nil {
		return 0, err
	}
	if n > maxCount {
		return 0, d.failf("%s %d exceeds limit %d", what, n, maxCount)
	}
	return n, nil
}

func (d *BinaryDecoder) ref(what string) (Ref, error) {
	var r Ref
	var err error
	if r.TID, err = d.uint(what, " tid"); err != nil {
		return r, err
	}
	if r.Instr, err = d.uint(what, " instr"); err != nil {
		return r, err
	}
	if r.Sub, err = d.uint(what, " sub"); err != nil {
		return r, err
	}
	return r, nil
}

// Next decodes and returns the next trace, or io.EOF after the last
// one.
func (d *BinaryDecoder) Next() (*Trace, error) {
	if d.err != nil {
		return nil, d.err
	}
	if !d.headerOK {
		magic := make([]byte, len(BinaryMagic))
		if _, err := io.ReadFull(d.br, magic); err != nil {
			if err == io.EOF {
				return nil, io.EOF
			}
			return nil, d.failf("truncated magic: %v", err)
		}
		if string(magic) != BinaryMagic {
			return nil, d.failf("bad magic %q (want %q)", magic, BinaryMagic)
		}
		v, err := d.uvarint("format version")
		if err != nil {
			return nil, err
		}
		if v != FormatVersion {
			return nil, d.failf("unsupported trace format version %d (decoder speaks %d)", v, FormatVersion)
		}
		d.headerOK = true
	}

	// Frame boundary: a clean EOF here means the stream is done.
	nameLen, err := binary.ReadUvarint(d.br)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, d.failf("truncated frame: %v", err)
	}
	if nameLen > maxNameLen {
		return nil, d.failf("name length %d exceeds limit %d", nameLen, maxNameLen)
	}
	t := &Trace{}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(d.br, name); err != nil {
		return nil, d.failf("truncated name: %v", err)
	}
	t.Name = string(name)

	nthreads, err := d.count("thread count")
	if err != nil {
		return nil, err
	}
	t.Threads = presized[Thread](nthreads)
	for i := 0; i < nthreads; i++ {
		var th Thread
		if th.TID, err = d.uint("tid", ""); err != nil {
			return nil, err
		}
		nops, err := d.count("op count")
		if err != nil {
			return nil, err
		}
		th.Ops = presized[Op](nops)
		for j := 0; j < nops; j++ {
			flags, err := d.br.ReadByte()
			if err != nil {
				return nil, d.failf("truncated op flags: %v", err)
			}
			var op Op
			op.Kind = OpKind(flags & opFlagKindMask)
			op.Atomic = flags&opFlagAtomic != 0
			op.Keyed = flags&opFlagKeyed != 0
			if flags&^(opFlagKindMask|opFlagAtomic|opFlagKeyed) != 0 {
				return nil, d.failf("op flags %#x have unknown bits set", flags)
			}
			switch op.Kind {
			case OpRead, OpWrite:
				addr, err := d.uvarint("op addr")
				if err != nil {
					return nil, err
				}
				op.Addr = memAddrFromU64(addr)
				if op.Value, err = d.uvarint("op value"); err != nil {
					return nil, err
				}
			case OpFence:
				fb, err := d.br.ReadByte()
				if err != nil {
					return nil, d.failf("truncated fence kind: %v", err)
				}
				if fb > maxBinaryFence {
					return nil, d.failf("fence kind %d out of range", fb)
				}
				op.Fence = fenceFromByte(fb)
			case OpRMW:
				addr, err := d.uvarint("op addr")
				if err != nil {
					return nil, err
				}
				op.Addr = memAddrFromU64(addr)
				if op.Value, err = d.uvarint("op read value"); err != nil {
					return nil, err
				}
				if op.Value2, err = d.uvarint("op write value"); err != nil {
					return nil, err
				}
			}
			if op.Keyed {
				if op.Instr, err = d.uint("op key instr", ""); err != nil {
					return nil, err
				}
				if op.Sub, err = d.uint("op key sub", ""); err != nil {
					return nil, err
				}
			}
			th.Ops = append(th.Ops, op)
		}
		t.Threads = append(t.Threads, th)
	}

	nrf, err := d.count("rf count")
	if err != nil {
		return nil, err
	}
	t.RF = presized[RFEdge](nrf)
	for i := 0; i < nrf; i++ {
		var e RFEdge
		if e.Read, err = d.ref("rf read"); err != nil {
			return nil, err
		}
		ib, err := d.br.ReadByte()
		if err != nil {
			return nil, d.failf("truncated rf init flag: %v", err)
		}
		switch ib {
		case 1:
			e.Init = true
		case 0:
			if e.Write, err = d.ref("rf write"); err != nil {
				return nil, err
			}
		default:
			return nil, d.failf("rf init flag %d is not 0 or 1", ib)
		}
		t.RF = append(t.RF, e)
	}

	nco, err := d.count("co count")
	if err != nil {
		return nil, err
	}
	t.CO = presized[COOrder](nco)
	for i := 0; i < nco; i++ {
		var c COOrder
		addr, err := d.uvarint("co addr")
		if err != nil {
			return nil, err
		}
		c.Addr = memAddrFromU64(addr)
		nwrites, err := d.count("co write count")
		if err != nil {
			return nil, err
		}
		c.Writes = presized[Ref](nwrites)
		for j := 0; j < nwrites; j++ {
			w, err := d.ref("co write")
			if err != nil {
				return nil, err
			}
			c.Writes = append(c.Writes, w)
		}
		t.CO = append(t.CO, c)
	}
	return t, nil
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
